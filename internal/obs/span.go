package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer collects lightweight spans: named intervals with start/end
// timestamps, parent links and a lane (thread id in the Chrome trace
// model). A span is the one record of a timed interval: no histogram times
// the same interval again, and no span ID crosses a goroutine or package
// boundary. It is disabled by default — Start returns nil and every Span
// method is nil-safe, so instrumentation sites pay one atomic load when
// tracing is off. Enable it with SetEnabled (the CLIs do on -trace-spans).
//
// Ended spans export as Chrome trace_event "complete" events
// (chromeTraceJSON), loadable in chrome://tracing and Perfetto.
type Tracer struct {
	enabled atomic.Bool
	nextID  atomic.Uint64
	epochNS atomic.Int64 // wall clock at first enable; span times are relative

	mu    sync.Mutex
	spans []spanRecord
}

type spanRecord struct {
	id, parent uint64
	name, cat  string
	lane       int
	startNS    int64 // relative to epoch
	durNS      int64
}

// SetEnabled turns span collection on or off. The first enable pins the
// trace epoch; disabling keeps already-collected spans.
func (t *Tracer) SetEnabled(on bool) {
	if on {
		t.epochNS.CompareAndSwap(0, time.Now().UnixNano())
	}
	t.enabled.Store(on)
}

// Span is one in-flight interval. A nil Span (tracing disabled) accepts
// every method as a no-op, so call sites never branch.
type Span struct {
	t          *Tracer
	id, parent uint64
	name, cat  string
	lane       int
	startNS    int64
}

// Start opens a root span in category cat. Returns nil when the tracer is
// disabled or nil.
func (t *Tracer) Start(name, cat string) *Span {
	if t == nil || !t.enabled.Load() {
		return nil
	}
	return &Span{
		t:       t,
		id:      t.nextID.Add(1),
		name:    name,
		cat:     cat,
		startNS: time.Now().UnixNano() - t.epochNS.Load(),
	}
}

// Child opens a sub-span of s, inheriting its category and lane. Nil-safe.
func (s *Span) Child(name string) *Span {
	if s == nil || !s.t.enabled.Load() {
		return nil
	}
	return &Span{
		t:       s.t,
		id:      s.t.nextID.Add(1),
		parent:  s.id,
		name:    name,
		cat:     s.cat,
		lane:    s.lane,
		startNS: time.Now().UnixNano() - s.t.epochNS.Load(),
	}
}

// OnLane assigns the span to a lane (rendered as a thread row in Perfetto;
// the worker pools use the worker index). Returns s for chaining. Nil-safe.
func (s *Span) OnLane(lane int) *Span {
	if s != nil {
		s.lane = lane
	}
	return s
}

// End closes the span and records it on the tracer. Nil-safe; a span ended
// after its tracer was disabled is still recorded (the run that opened it
// wants its full shape).
func (s *Span) End() {
	if s == nil {
		return
	}
	rec := spanRecord{
		id: s.id, parent: s.parent,
		name: s.name, cat: s.cat, lane: s.lane,
		startNS: s.startNS,
		durNS:   time.Now().UnixNano() - s.t.epochNS.Load() - s.startNS,
	}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, rec)
	s.t.mu.Unlock()
}

// SpanInfo is one ended span as Spans returns it.
type SpanInfo struct {
	ID, Parent     uint64
	Name, Cat      string
	Lane           int
	StartNS, DurNS int64
}

// Spans returns a snapshot of every ended span, in the order they ended.
func (t *Tracer) Spans() []SpanInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanInfo, len(t.spans))
	for i, s := range t.spans {
		out[i] = SpanInfo{ID: s.id, Parent: s.parent,
			Name: s.name, Cat: s.cat, Lane: s.lane, StartNS: s.startNS, DurNS: s.durNS}
	}
	return out
}

// chromeEvent is one trace_event entry. Complete events ("ph":"X") carry
// their duration inline, which keeps the export single-pass. Timestamps are
// microseconds, the unit the format mandates.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTraceJSON renders every ended span as a Chrome trace_event JSON
// document ({"traceEvents": [...]}), loadable in chrome://tracing and
// Perfetto. Spans are sorted by start time (ties by id) so the export is a
// deterministic function of the collected spans.
func (t *Tracer) chromeTraceJSON() ([]byte, error) {
	t.mu.Lock()
	spans := append([]spanRecord(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].startNS != spans[j].startNS {
			return spans[i].startNS < spans[j].startNS
		}
		return spans[i].id < spans[j].id
	})
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		ev := chromeEvent{
			Name: s.name,
			Cat:  s.cat,
			Ph:   "X",
			TS:   float64(s.startNS) / 1e3,
			Dur:  float64(s.durNS) / 1e3,
			PID:  1,
			TID:  s.lane,
		}
		if s.parent != 0 {
			ev.Args = map[string]any{"id": s.id, "parent": s.parent}
		}
		events = append(events, ev)
	}
	var buf bytes.Buffer
	buf.WriteString("{\"traceEvents\":")
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(events); err != nil {
		return nil, fmt.Errorf("obs: encode trace events: %w", err)
	}
	buf.Truncate(buf.Len() - 1) // drop Encode's trailing newline
	buf.WriteString(",\"displayTimeUnit\":\"ms\"}\n")
	return buf.Bytes(), nil
}
