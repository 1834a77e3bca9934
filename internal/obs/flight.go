// Flight recorder: a fixed-size lock-free ring of recent semantic events
// (op begin/end, fault fired, kill point armed, WAL degrade, spec verdict)
// that survives to a CRC-framed dump file when the process dies violently —
// panic, a SIGKILL-adjacent kill point, or a consistency violation. The
// ring is the Recorder idea at event granularity: continuous low-overhead
// capture so a post-mortem can attribute a crash to the ops in flight,
// without the cost or volume of full tracing.
//
// Concurrency model: slots hold only atomics. A writer claims a global
// sequence number with one atomic add, then claims the slot by CAS-ing its
// stamp to a busy marker (waiting out a writer a ring-lap away that holds
// it, and dropping its own event if that writer published a later one),
// fills the payload fields and publishes the sequence stamp last. A slot's
// stamp therefore only grows, and a payload is never written under a
// published stamp. A dumper skips busy slots, reads the stamp, the payload,
// then the stamp again, and discards the slot if a writer claimed it in
// between. No locks anywhere on the record path, so the recorder is safe to
// call from under fs.mu, l.mu or a dying signal path. The disabled path is one
// atomic load and allocates nothing (gated with the other instruments in
// BenchmarkDisabledOverhead).
//
// Event classes (the string names) are interned once at init time into a
// process-wide table; recording passes the small integer class, so no
// strings move through the hot path or the ring.
package obs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/frame"
)

// FlightClass is an interned event-class name (see FlightClassFor).
type FlightClass uint32

var flightClasses struct {
	mu    sync.Mutex
	names []string
	index map[string]FlightClass
}

// FlightClassFor interns a class name, returning its stable class id.
// Call it from package-level vars (like Registry instruments); the lookup
// locks, the returned id is hot-path-safe.
func FlightClassFor(name string) FlightClass {
	flightClasses.mu.Lock()
	defer flightClasses.mu.Unlock()
	if flightClasses.index == nil {
		flightClasses.index = make(map[string]FlightClass)
	}
	if c, ok := flightClasses.index[name]; ok {
		return c
	}
	c := FlightClass(len(flightClasses.names))
	flightClasses.names = append(flightClasses.names, name)
	flightClasses.index[name] = c
	return c
}

func flightClassName(c FlightClass) string {
	flightClasses.mu.Lock()
	defer flightClasses.mu.Unlock()
	if int(c) < len(flightClasses.names) {
		return flightClasses.names[c]
	}
	return fmt.Sprintf("class#%d", uint32(c))
}

func flightClassTable() []string {
	flightClasses.mu.Lock()
	defer flightClasses.mu.Unlock()
	return append([]string(nil), flightClasses.names...)
}

// FlightEvent is one recorded semantic event, as read back from the ring
// or a dump file.
type FlightEvent struct {
	Seq    uint64 // global claim order (1-based, gaps only at torn slots)
	WallNS int64  // wall-clock time of the event
	Class  string // interned class name, e.g. "pfs.write.begin"
	Rank   int32  // owning rank, -1 when not attributable
	Trace  uint64 // causal trace ID (see Tracer.StartTrace), 0 when none
	A, B   int64  // class-specific payload (offset/length, cost, seq...)
}

// flightSlot is all-atomic so concurrent Record and Events never race.
// stamp is written last (the publish): a reader that sees the same stamp
// before and after reading the payload got a consistent event.
type flightSlot struct {
	stamp atomic.Uint64 // seq of the event occupying the slot; 0 = empty, flightBusy = being written
	wall  atomic.Int64
	class atomic.Uint32
	rank  atomic.Int32
	trace atomic.Uint64
	a, b  atomic.Int64
}

// flightBusy marks a slot a writer has claimed but not yet published.
const flightBusy = ^uint64(0)

// FlightRecorder is the fixed-size ring. The zero value is not usable; use
// NewFlightRecorder or the process-wide Flight().
type FlightRecorder struct {
	enabled atomic.Bool
	next    atomic.Uint64
	mask    uint64
	slots   []flightSlot
}

// DefaultFlightSize is the process-wide ring's capacity: enough to hold the
// last few thousand semantic events at ~56 bytes a slot.
const DefaultFlightSize = 4096

// NewFlightRecorder returns a disabled recorder with capacity rounded up to
// a power of two (minimum 8).
func NewFlightRecorder(size int) *FlightRecorder {
	n := 8
	for n < size {
		n <<= 1
	}
	return &FlightRecorder{mask: uint64(n - 1), slots: make([]flightSlot, n)}
}

var defaultFlight = NewFlightRecorder(DefaultFlightSize)

// Flight returns the process-wide flight recorder the instrumented layers
// (pfs, wal, faults, consistency) record on. Disabled until armed
// (ArmFlightDump or SetEnabled).
func Flight() *FlightRecorder { return defaultFlight }

// SetEnabled turns recording on or off. Events already in the ring stay.
func (f *FlightRecorder) SetEnabled(on bool) { f.enabled.Store(on) }

// Enabled reports whether events are being recorded.
func (f *FlightRecorder) Enabled() bool { return f != nil && f.enabled.Load() }

// Record appends one event to the ring, overwriting the oldest when full.
// Nil-safe; one atomic load and an early return when disabled. rank -1
// means "not attributable"; trace links the event to a span chain.
func (f *FlightRecorder) Record(class FlightClass, rank int32, trace uint64, a, b int64) {
	if f == nil || !f.enabled.Load() {
		return
	}
	seq := f.next.Add(1)
	s := &f.slots[(seq-1)&f.mask]
claim:
	for {
		switch old := s.stamp.Load(); {
		case old == flightBusy:
			runtime.Gosched() // a writer a ring-lap away is filling the slot
		case old > seq:
			return // that writer published a later event; ours is older
		case s.stamp.CompareAndSwap(old, flightBusy):
			break claim
		}
	}
	s.wall.Store(time.Now().UnixNano())
	s.class.Store(uint32(class))
	s.rank.Store(rank)
	s.trace.Store(trace)
	s.a.Store(a)
	s.b.Store(b)
	s.stamp.Store(seq) // publish
	flightEvents.Inc()
}

// Events snapshots the ring, oldest first. Slots being overwritten while
// the snapshot runs are skipped (their stamp moved), so the result is
// always a set of individually consistent events.
func (f *FlightRecorder) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	out := make([]FlightEvent, 0, len(f.slots))
	for i := range f.slots {
		s := &f.slots[i]
		seq := s.stamp.Load()
		if seq == 0 || seq == flightBusy {
			continue
		}
		ev := FlightEvent{
			Seq:    seq,
			WallNS: s.wall.Load(),
			Class:  flightClassName(FlightClass(s.class.Load())),
			Rank:   s.rank.Load(),
			Trace:  s.trace.Load(),
			A:      s.a.Load(),
			B:      s.b.Load(),
		}
		if s.stamp.Load() != seq {
			continue // claimed by a writer meanwhile; skip
		}
		out = append(out, ev)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Reset empties the ring and zeroes the sequence (test support).
func (f *FlightRecorder) Reset() {
	for i := range f.slots {
		f.slots[i].stamp.Store(0)
	}
	f.next.Store(0)
}

// Dump-file framing, ckpt/wal style: after an 8-byte file magic, every
// record is an internal/frame frame (magic "FLTR"), independently
// CRC-checked so a dump written by a dying process is salvageable up to
// its torn tail.
//
// Frame payloads: type byte 0 = class name (class ids are assigned in
// frame order), type byte 1 = one event (fixed little-endian layout).
const (
	flightMagic      = "SFLT1\n\x00\x00"
	flightFrameMagic = "FLTR"
	frameClass       = 0
	frameEvent       = 1
	maxFlightFrame   = 1 << 16
)

// EncodeFlightDump renders the recorder's current contents (plus the class
// table) as a CRC-framed dump.
func (f *FlightRecorder) EncodeFlightDump() []byte {
	events := f.Events()
	buf := []byte(flightMagic)
	for _, name := range flightClassTable() {
		buf = frame.Append(buf, flightFrameMagic, append([]byte{frameClass}, name...))
	}
	var p [53]byte
	for _, ev := range events {
		p[0] = frameEvent
		binary.LittleEndian.PutUint64(p[1:9], ev.Seq)
		binary.LittleEndian.PutUint64(p[9:17], uint64(ev.WallNS))
		binary.LittleEndian.PutUint32(p[17:21], uint32(classIndexOf(ev.Class)))
		binary.LittleEndian.PutUint32(p[21:25], uint32(ev.Rank))
		binary.LittleEndian.PutUint64(p[25:33], ev.Trace)
		binary.LittleEndian.PutUint64(p[33:41], uint64(ev.A))
		binary.LittleEndian.PutUint64(p[41:49], uint64(ev.B))
		binary.LittleEndian.PutUint32(p[49:53], 0) // reserved
		buf = frame.Append(buf, flightFrameMagic, p[:])
	}
	return buf
}

func classIndexOf(name string) FlightClass { return FlightClassFor(name) }

// WriteDump writes the ring to path, fsyncing before close — the file must
// survive the SIGKILL that typically follows.
func (f *FlightRecorder) WriteDump(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: flight dump: %w", err)
	}
	if _, err := out.Write(f.EncodeFlightDump()); err != nil {
		out.Close()
		return fmt.Errorf("obs: flight dump: %w", err)
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return fmt.Errorf("obs: flight dump: %w", err)
	}
	if err := out.Close(); err != nil {
		return fmt.Errorf("obs: flight dump: %w", err)
	}
	flightDumps.Inc()
	return nil
}

// FlightDump is a decoded dump file.
type FlightDump struct {
	Events []FlightEvent
	// TornBytes counts trailing bytes discarded because a frame was torn or
	// failed its CRC — expected when the writer died mid-dump.
	TornBytes int
}

// LoadFlightDump decodes a dump file, salvaging every complete frame and
// truncating at the first torn or corrupt one (the writer was dying; a torn
// tail is the expected shape, not an error). A missing or foreign file is
// an error.
func LoadFlightDump(path string) (*FlightDump, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: flight dump: %w", err)
	}
	if len(data) < len(flightMagic) || string(data[:len(flightMagic)]) != flightMagic {
		return nil, fmt.Errorf("obs: %s is not a flight dump (bad magic)", path)
	}
	d := &FlightDump{}
	var classes []string
	st, _ := frame.Scan(bytes.NewReader(data[len(flightMagic):]), flightFrameMagic, maxFlightFrame, func(payload []byte) bool {
		switch {
		case len(payload) == 0 || payload[0] == frameEvent && len(payload) < 53:
			return false // not a frame this writer produces: treat as torn
		case payload[0] == frameClass:
			classes = append(classes, string(payload[1:]))
		case payload[0] == frameEvent:
			ev := FlightEvent{
				Seq:    binary.LittleEndian.Uint64(payload[1:9]),
				WallNS: int64(binary.LittleEndian.Uint64(payload[9:17])),
				Rank:   int32(binary.LittleEndian.Uint32(payload[21:25])),
				Trace:  binary.LittleEndian.Uint64(payload[25:33]),
				A:      int64(binary.LittleEndian.Uint64(payload[33:41])),
				B:      int64(binary.LittleEndian.Uint64(payload[41:49])),
			}
			ci := binary.LittleEndian.Uint32(payload[17:21])
			if int(ci) < len(classes) {
				ev.Class = classes[ci]
			} else {
				ev.Class = fmt.Sprintf("class#%d", ci)
			}
			d.Events = append(d.Events, ev)
		}
		return true
	})
	d.TornBytes = int(st.TailBytes) // a bytes.Reader cannot fail a read
	return d, nil
}

// FormatFlightDump renders a decoded dump for post-mortem reading: events
// oldest-first with wall-clock offsets from the first event, then an
// attribution section naming the trigger and — for a consistency
// violation — the violating op (rank, history seq, trace).
func FormatFlightDump(d *FlightDump) string {
	var b strings.Builder
	fmt.Fprintf(&b, "flight recorder dump: %d event(s)", len(d.Events))
	if d.TornBytes > 0 {
		fmt.Fprintf(&b, ", %d torn tail byte(s) discarded", d.TornBytes)
	}
	b.WriteString("\n")
	var epoch int64
	if len(d.Events) > 0 {
		epoch = d.Events[0].WallNS
	}
	for _, ev := range d.Events {
		fmt.Fprintf(&b, "  #%-6d +%-12s %-28s", ev.Seq,
			time.Duration(ev.WallNS-epoch).String(), ev.Class)
		if ev.Rank >= 0 {
			fmt.Fprintf(&b, " rank=%d", ev.Rank)
		}
		if ev.Trace != 0 {
			fmt.Fprintf(&b, " trace=%#x", ev.Trace)
		}
		fmt.Fprintf(&b, " a=%d b=%d\n", ev.A, ev.B)
	}
	for i := len(d.Events) - 1; i >= 0; i-- {
		ev := d.Events[i]
		switch ev.Class {
		case "consistency.violation":
			fmt.Fprintf(&b, "attribution: consistency violation — violating read seq=%d rank=%d", ev.A, ev.Rank)
			if ev.Trace != 0 {
				fmt.Fprintf(&b, ", implicated write trace=%#x", ev.Trace)
			}
			if ev.B >= 0 {
				fmt.Fprintf(&b, ", first differing offset=%d", ev.B)
			}
			b.WriteString("\n")
		case "flight.trigger", "kill.fired", "panic":
			fmt.Fprintf(&b, "attribution: dump trigger = %s (event #%d)\n", ev.Class, ev.Seq)
			continue
		default:
			continue
		}
		break
	}
	return b.String()
}

// Process-wide dump arming. ArmFlightDump enables the default recorder and
// pins the path violent-exit paths (kill points, consistency violations,
// FlightPanicDump) write to.
var flightDumpPath atomic.Pointer[string]

// ArmFlightDump enables the process-wide recorder and sets where triggered
// dumps land. An empty path disarms (recording stops, ring kept).
func ArmFlightDump(path string) {
	if path == "" {
		flightDumpPath.Store(nil)
		defaultFlight.SetEnabled(false)
		return
	}
	flightDumpPath.Store(&path)
	defaultFlight.SetEnabled(true)
}

// FlightDumpPath returns the armed dump path ("" when disarmed).
func FlightDumpPath() string {
	if p := flightDumpPath.Load(); p != nil {
		return *p
	}
	return ""
}

var flightTriggerClass = FlightClassFor("flight.trigger")

// TriggerFlightDump records a trigger event and writes the armed dump file.
// It is the one call every violent-exit site makes (kill points before
// SIGKILL, the consistency checker on a rejected history, FlightPanicDump).
// A no-op returning ("", nil) when no dump path is armed.
func TriggerFlightDump(reason string) (string, error) {
	path := FlightDumpPath()
	if path == "" {
		return "", nil
	}
	defaultFlight.Record(FlightClassFor("flight.reason."+sanitizeClass(reason)), -1, 0, 0, 0)
	defaultFlight.Record(flightTriggerClass, -1, 0, 0, 0)
	return path, defaultFlight.WriteDump(path)
}

// sanitizeClass makes a free-form reason safe as a dot-path class suffix.
func sanitizeClass(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '.', r == '-', r == '_':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		case r == ' ':
			return '-'
		default:
			return -1
		}
	}, s)
}

var panicClass = FlightClassFor("panic")

// FlightPanicDump is deferred at the top of each CLI: if the process is
// panicking it records the fact, writes the armed dump and re-panics, so
// the flight ring survives even deaths that unwind the stack.
//
//	defer obs.FlightPanicDump()
func FlightPanicDump() {
	r := recover()
	if r == nil {
		return
	}
	defaultFlight.Record(panicClass, -1, 0, 0, 0)
	TriggerFlightDump("panic")
	panic(r)
}

// Flight-recorder telemetry (DESIGN.md §14 naming: flight.*).
var (
	flightEvents = Default().Counter("flight.events")
	flightDumps  = Default().Counter("flight.dumps")
)
