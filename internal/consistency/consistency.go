// Package consistency implements the four consistency models of the paper —
// strong (POSIX), commit, session, eventual — as *executable formal
// specifications*: visibility/ordering predicates evaluated over a recorded
// operation history, following "Formal Definitions and Performance
// Comparison of Consistency Models for Parallel File Systems" (the same
// authors' follow-up; see PAPERS.md).
//
// The input is the total-order op log a pfs.FileSystem emits through its
// HistoryRecorder hook (open, write, read, commit, close, laminate,
// truncate, with payloads and logical timestamps). The checker is an
// independent second implementation: it re-derives *publication* (when a
// write becomes globally available) and *visibility* (which published
// writes a given read must/may observe) from the formal definitions alone —
// it never consults the file system's own extent state — and predicts every
// read's result:
//
//	strong:   a write is published at write time; a read observes the
//	          newest published write per byte (sequential consistency over
//	          the serialized op order).
//	commit:   a write is published at the writer's next commit (fsync) or
//	          close; uncommitted remote writes must stay invisible.
//	session:  a write is published at the writer's close; a read observes
//	          exactly the writes published before the reader's open
//	          (close-to-open), plus its own buffered writes.
//	eventual: a write is published at write time but a remote reader is
//	          only *guaranteed* to observe it after the propagation delay
//	          (bounded staleness); earlier visibility is legal, never
//	          required.
//
// In every model a reader must observe its own writes in program order
// (read-your-writes), lamination makes a file's content visible under every
// model, and truncation is a metadata-path operation that clips published
// data immediately and globally.
//
// A history is accepted iff every read matches the model's prediction.
// Rejection carries a minimal counterexample: the violating read/write op
// pair, the first violating byte, and the predicate clause that failed.
// Ordering violations (lost writes, out-of-order application) surface as
// value mismatches against the derived newest-visible write, so the same
// machinery checks both the visibility and the ordering predicates.
package consistency

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/pfs"
)

// Options parameterizes a check.
type Options struct {
	// EventualDelayNS is the staleness bound of the eventual spec: a remote
	// write must be visible once its publish time is at least this old.
	// 0 selects the pfs default (50 ms), matching pfs.Options.EventualDelay.
	EventualDelayNS uint64
}

// Violation is a minimal counterexample: the observing read, the write
// whose visibility predicate it violates, and the clause that failed.
type Violation struct {
	Model  pfs.Semantics
	Clause string
	// Read is the observing operation (always an OpRead).
	Read pfs.HistoryEvent
	// Write is the conflicting or missing operation, when one is
	// identifiable (nil for malformed histories).
	Write *pfs.HistoryEvent
	// Offset is the first violating byte (absolute file offset), -1 when
	// the violation is about the returned length rather than a byte value.
	Offset int64
	Detail string
}

func (v *Violation) String() string {
	if v == nil {
		return "<accepted>"
	}
	s := fmt.Sprintf("%s: %s: read #%d (rank %d %s [%d,+%d))",
		v.Model, v.Clause, v.Read.Seq, v.Read.Rank, v.Read.Path, v.Read.Off, v.Read.Len)
	if v.Write != nil {
		s += fmt.Sprintf(" vs %s #%d (rank %d [%d,+%d))",
			v.Write.Kind, v.Write.Seq, v.Write.Rank, v.Write.Off, v.Write.Len)
	}
	if v.Offset >= 0 {
		s += fmt.Sprintf(" at byte %d", v.Offset)
	}
	if v.Detail != "" {
		s += ": " + v.Detail
	}
	return s
}

// Result is the outcome of checking one history against one model's spec.
type Result struct {
	Model     pfs.Semantics
	Events    int   // total events consumed (including failed ops)
	Reads     int   // successful reads verified
	Bytes     int64 // read bytes verified
	Violation *Violation
}

// OK reports whether the history satisfies the model's formal spec.
func (r Result) OK() bool { return r.Violation == nil }

// CheckLog is checkHistory over a Log's current contents.
func CheckLog(model pfs.Semantics, log *Log, opt Options) Result {
	return checkHistory(model, log.Events(), opt)
}

// checkHistory evaluates the formal spec of the given model over a recorded
// history and returns accept, or reject with a minimal counterexample. The
// events must be in recorded (Seq) order. Checking stops at the first
// violation: everything after it would be conditioned on state the
// implementation already got wrong.
func checkHistory(model pfs.Semantics, events []pfs.HistoryEvent, opt Options) (res Result) {
	start := time.Now()
	defer func() { checkWall.Observe(time.Since(start).Nanoseconds()) }()
	delay := opt.EventualDelayNS
	if delay == 0 {
		delay = 50_000_000 // pfs.Options default
	}
	c := &checker{
		model:   model,
		delay:   delay,
		files:   make(map[string]*fileState),
		pending: make(map[pendKey][]span),
		handles: make(map[uint64]*handleState),
	}
	res.Model = model
	for i := range events {
		ev := &events[i]
		res.Events++
		if ev.Err != "" {
			continue // failed ops left the file system unchanged
		}
		switch ev.Kind {
		case pfs.OpOpen:
			c.open(ev)
		case pfs.OpWrite:
			c.write(ev)
		case pfs.OpCommit:
			c.commit(ev)
		case pfs.OpClose:
			c.close(ev)
		case pfs.OpLaminate:
			c.laminate(ev)
		case pfs.OpTruncate:
			c.truncate(ev)
		case pfs.OpRead:
			res.Reads++
			res.Bytes += int64(len(ev.Data))
			if v := c.checkRead(ev); v != nil {
				v.Model = model
				res.Violation = v
				return res
			}
		}
	}
	return res
}

// span is one write's payload in the checker's derived published or pending
// state. Published spans carry the derived publish sequence number and
// publish time; pending spans have seq 0.
type span struct {
	off     int64
	data    []byte
	seq     uint64
	pubTime uint64
	writer  int
	src     *pfs.HistoryEvent
}

func (s span) end() int64 { return s.off + int64(len(s.data)) }

type fileState struct {
	published []span // in derived publish order
	laminated bool
}

type pendKey struct {
	rank int
	path string
}

type handleState struct {
	openSnap uint64 // derived publish sequence at open (session visibility)
}

type checker struct {
	model   pfs.Semantics
	delay   uint64
	pubSeq  uint64
	files   map[string]*fileState
	pending map[pendKey][]span
	handles map[uint64]*handleState
}

func (c *checker) file(path string) *fileState {
	f, ok := c.files[path]
	if !ok {
		f = &fileState{}
		c.files[path] = f
	}
	return f
}

// publish appends spans to the file's derived published list in order,
// assigning publish sequence numbers — the formal publication event.
func (c *checker) publish(f *fileState, spans []span, now uint64) {
	for _, s := range spans {
		c.pubSeq++
		s.seq = c.pubSeq
		s.pubTime = now
		f.published = append(f.published, s)
	}
}

// publishPending moves one client's buffered writes for a path into the
// published state (the commit/close/laminate publication point).
func (c *checker) publishPending(path string, rank int, now uint64) {
	k := pendKey{rank, path}
	if p := c.pending[k]; len(p) > 0 {
		c.publish(c.file(path), p, now)
	}
	delete(c.pending, k)
}

// clip applies a truncation to a span list, dropping spans at or beyond
// the new length and shortening spans that straddle it.
func clip(spans []span, length int64) []span {
	kept := spans[:0]
	for _, s := range spans {
		if s.off >= length {
			continue
		}
		if s.end() > length {
			s.data = s.data[:length-s.off]
		}
		kept = append(kept, s)
	}
	return kept
}

func (c *checker) open(ev *pfs.HistoryEvent) {
	if ev.Flags&pfs.OTrunc != 0 {
		f := c.file(ev.Path)
		f.published = clip(f.published, 0)
		// An O_TRUNC open also discards the opener's own buffered writes.
		delete(c.pending, pendKey{ev.Rank, ev.Path})
	}
	c.handles[ev.Handle] = &handleState{openSnap: c.pubSeq}
}

func (c *checker) write(ev *pfs.HistoryEvent) {
	s := span{off: ev.Off, data: ev.Data, writer: ev.Rank, src: ev}
	switch c.model {
	case pfs.Strong, pfs.Eventual:
		// Publication at write time; under eventual the *visibility* of the
		// published span is what the propagation delay gates.
		c.publish(c.file(ev.Path), []span{s}, ev.Now)
	case pfs.Commit, pfs.Session:
		k := pendKey{ev.Rank, ev.Path}
		c.pending[k] = append(c.pending[k], s)
	}
}

func (c *checker) commit(ev *pfs.HistoryEvent) {
	// fsync publishes under commit semantics only: session keeps buffering
	// until close (fsync persists but does not reveal), strong/eventual
	// have nothing buffered.
	if c.model == pfs.Commit {
		c.publishPending(ev.Path, ev.Rank, ev.Now)
	}
}

func (c *checker) close(ev *pfs.HistoryEvent) {
	if c.model == pfs.Commit || c.model == pfs.Session {
		c.publishPending(ev.Path, ev.Rank, ev.Now)
	}
	delete(c.handles, ev.Handle)
}

func (c *checker) laminate(ev *pfs.HistoryEvent) {
	c.publishPending(ev.Path, ev.Rank, ev.Now)
	c.file(ev.Path).laminated = true
}

func (c *checker) truncate(ev *pfs.HistoryEvent) {
	f := c.file(ev.Path)
	f.published = clip(f.published, ev.Off)
	// Truncation clips the *caller's* buffered writes; other clients'
	// buffers are untouched and may republish past the cut later.
	k := pendKey{ev.Rank, ev.Path}
	if p, ok := c.pending[k]; ok {
		if p = clip(p, ev.Off); len(p) == 0 {
			delete(c.pending, k)
		} else {
			c.pending[k] = p
		}
	}
}

// checkRead verifies one read against the model's visibility predicates.
func (c *checker) checkRead(ev *pfs.HistoryEvent) *Violation {
	f := c.file(ev.Path)
	h, ok := c.handles[ev.Handle]
	if !ok {
		return &Violation{Clause: "history-malformed", Read: *ev, Offset: -1,
			Detail: "read through a handle with no recorded open"}
	}

	// must: the model's mandatory visibility predicate. may: what the model
	// additionally admits — identical except under eventual, where a remote
	// write MAY be observed before the staleness bound forces it.
	must := func(s span) bool {
		if f.laminated {
			return true
		}
		switch c.model {
		case pfs.Strong, pfs.Commit:
			return true
		case pfs.Session:
			return s.seq <= h.openSnap
		case pfs.Eventual:
			return s.writer == ev.Rank || s.pubTime+c.delay <= ev.Now
		}
		return false
	}
	may := func(s span) bool {
		if c.model == pfs.Eventual {
			return true
		}
		return must(s)
	}

	own := c.pending[pendKey{ev.Rank, ev.Path}]
	n := ev.Len

	// Canonical expectation: the must-view, composed exactly like a real
	// server materializes a read — mandatory-visible published spans in
	// publish order, then the reader's own buffered writes in program
	// order. The visible EOF counts every mandatory span, in range or not.
	buf := make([]byte, n)
	var visEnd int64
	apply := func(s span) {
		lo, hi := s.off, s.end()
		if hi > visEnd {
			visEnd = hi
		}
		if hi <= ev.Off || lo >= ev.Off+n {
			return
		}
		d := s.data
		if lo < ev.Off {
			d = d[ev.Off-lo:]
			lo = ev.Off
		}
		if hi > ev.Off+n {
			d = d[:ev.Off+n-lo]
		}
		copy(buf[lo-ev.Off:], d)
	}
	for _, s := range f.published {
		if must(s) {
			apply(s)
		}
	}
	for _, s := range own {
		apply(s)
	}
	mustAvail := clampAvail(visEnd, ev.Off, n)
	if bytes.Equal(ev.Data, buf[:mustAvail]) {
		return nil // the implementation produced exactly the mandatory view
	}
	return c.diagnose(ev, f, h, own, must, may, buf[:mustAvail])
}

func clampAvail(visEnd, off, n int64) int64 {
	avail := visEnd - off
	if avail < 0 {
		avail = 0
	}
	if avail > n {
		avail = n
	}
	return avail
}

// diagnose runs the slow, per-byte admissibility analysis for a read that
// diverged from the canonical must-view. Under strong/commit/session the
// spec is deterministic, so this always produces a counterexample; under
// eventual it accepts early-visibility interleavings the canonical view
// does not predict, and rejects everything else.
func (c *checker) diagnose(ev *pfs.HistoryEvent, f *fileState, h *handleState,
	own []span, must, may func(span) bool, expected []byte) *Violation {

	// Length bounds: at least the mandatory view, at most the admissible
	// one (mandatory plus early-visible spans).
	mustAvail := int64(len(expected))
	var mayEnd int64
	for _, s := range f.published {
		if may(s) && s.end() > mayEnd {
			mayEnd = s.end()
		}
	}
	for _, s := range own {
		if s.end() > mayEnd {
			mayEnd = s.end()
		}
	}
	mayAvail := clampAvail(mayEnd, ev.Off, ev.Len)
	got := int64(len(ev.Data))
	if got < mustAvail {
		// Identify the newest mandatory span (or own write) past the short
		// end — the write whose visibility the read denied.
		var culprit *pfs.HistoryEvent
		for _, s := range f.published {
			if must(s) && s.end() > ev.Off+got {
				culprit = s.src
			}
		}
		for _, s := range own {
			if s.end() > ev.Off+got {
				culprit = s.src
			}
		}
		return &Violation{Clause: c.visibilityClause(), Read: *ev, Write: culprit, Offset: -1,
			Detail: fmt.Sprintf("read returned %d bytes where the spec makes %d visible", got, mustAvail)}
	}
	if got > mayAvail {
		return &Violation{Clause: c.isolationClause(), Read: *ev, Write: nil, Offset: -1,
			Detail: fmt.Sprintf("read returned %d bytes where the spec admits at most %d", got, mayAvail)}
	}

	for i := int64(0); i < got; i++ {
		p := ev.Off + i
		b := ev.Data[i]

		// Read-your-writes: the reader's own buffered writes shadow
		// everything they cover, newest first.
		if s := lastCovering(own, p, nil); s != nil {
			if b != s.data[p-s.off] {
				return &Violation{Clause: "po-read-your-writes", Read: *ev, Write: s.src, Offset: p,
					Detail: fmt.Sprintf("got %#02x, own buffered write holds %#02x", b, s.data[p-s.off])}
			}
			continue
		}

		newestMust := lastCovering(f.published, p, must)
		if newestMust != nil && b == newestMust.data[p-newestMust.off] {
			continue
		}
		if newestMust == nil && b == 0 {
			continue // hole (or not-yet-mandatory data) reads as zero
		}
		// Early visibility: a may-visible span newer than the newest
		// mandatory one may already have propagated.
		minSeq := uint64(0)
		if newestMust != nil {
			minSeq = newestMust.seq
		}
		admissible := false
		for _, s := range f.published {
			if s.seq > minSeq && may(s) && covers(s, p) && b == s.data[p-s.off] {
				admissible = true
				break
			}
		}
		if admissible {
			continue
		}

		// Violation. Name the leaked write if the byte matches one the
		// model forbids (a hidden published span or another client's
		// buffer); otherwise the mandatory write went unobserved.
		for _, s := range f.published {
			if !may(s) && covers(s, p) && b == s.data[p-s.off] {
				return &Violation{Clause: c.isolationClause(), Read: *ev, Write: s.src, Offset: p,
					Detail: "observed a write the model requires hidden"}
			}
		}
		for k, spans := range c.pending {
			if k.path != ev.Path || k.rank == ev.Rank {
				continue
			}
			if s := lastCovering(spans, p, func(s span) bool { return b == s.data[p-s.off] }); s != nil {
				return &Violation{Clause: c.isolationClause(), Read: *ev, Write: s.src, Offset: p,
					Detail: fmt.Sprintf("observed rank %d's unpublished write", k.rank)}
			}
		}
		if newestMust != nil {
			return &Violation{Clause: c.visibilityClause(), Read: *ev, Write: newestMust.src, Offset: p,
				Detail: fmt.Sprintf("got %#02x, newest mandatory-visible write holds %#02x",
					b, newestMust.data[p-newestMust.off])}
		}
		return &Violation{Clause: "unexplained-value", Read: *ev, Offset: p,
			Detail: fmt.Sprintf("got %#02x where the spec predicts a zero hole", b)}
	}

	// Every byte individually admissible and the length within bounds —
	// a legal early-visibility interleaving (eventual only).
	return nil
}

// lastCovering returns the last span in publish/program order covering
// offset p and passing pred (nil = all), or nil.
func lastCovering(spans []span, p int64, pred func(span) bool) *span {
	for i := len(spans) - 1; i >= 0; i-- {
		s := &spans[i]
		if covers(*s, p) && (pred == nil || pred(*s)) {
			return s
		}
	}
	return nil
}

func covers(s span, p int64) bool { return s.off <= p && p < s.end() }

// visibilityClause names the model's mandatory-visibility predicate — the
// clause violated when a read misses data the model guarantees.
func (c *checker) visibilityClause() string {
	switch c.model {
	case pfs.Strong:
		return "strong-read-latest"
	case pfs.Commit:
		return "commit-visibility"
	case pfs.Session:
		return "session-visibility"
	case pfs.Eventual:
		return "eventual-bounded-staleness"
	}
	return "visibility"
}

// isolationClause names the model's isolation predicate — the clause
// violated when a read observes data the model requires hidden.
func (c *checker) isolationClause() string {
	switch c.model {
	case pfs.Strong:
		return "strong-read-latest"
	case pfs.Commit:
		return "commit-isolation"
	case pfs.Session:
		return "session-isolation"
	case pfs.Eventual:
		return "eventual-isolation"
	}
	return "isolation"
}
