package core

import (
	"context"
	"fmt"

	"repro/internal/recorder"
)

// HB is the happens-before relation reconstructed from a trace's MPI-layer
// records, used for the §5.2 validation: matching sends to receives and
// collective invocations to each other, so we can confirm that the
// timestamp order of conflicting I/O operations matches the execution order
// imposed by the program's synchronization.
type HB struct {
	ranks  int
	events [][]hbEvent // per rank, in stream order; shared with the scan
	vcs    [][][]int32 // vcs[rank][i] is events[rank][i]'s clock
}

// hbEvent is one MPI-layer record, reduced to the fields happens-before
// reads, so that nothing aliases the record a stream reuses.
type hbEvent struct {
	tstart, tend uint64
	peer, tag    int64 // Args 0 and 1 of a send or receive
	seq          int64 // collective sequence number (Arg 2), -1 for p2p
	fn           recorder.Func
}

func newHBEvent(r *recorder.Record) hbEvent {
	seq := int64(-1)
	if isCollective(r.Func) {
		seq = r.Arg(2)
	}
	return hbEvent{tstart: r.TStart, tend: r.TEnd, peer: r.Arg(0), tag: r.Arg(1), seq: seq, fn: r.Func}
}

type nodeID struct{ rank, idx int }

// hbColl is one collective instance: its participants in rank order and,
// once the first of them is processed, the join of their predecessors.
type hbColl struct {
	n     int // participants
	parts []nodeID
	join  []int32
}

// BuildHB reconstructs the happens-before relation of a trace from a scan's
// MPI events (see ScanTraceCtx).
func BuildHB(tr *recorder.Trace) (*HB, error) {
	sc, err := ScanTraceCtx(context.TODO(), tr, 1)
	if err != nil {
		return nil, err
	}
	return sc.HB()
}

// buildHBOver reconstructs the happens-before relation over per-rank MPI
// events, which it only reads. Send k from r to s with a tag matches
// receive k on s from r with that tag; collective records match by their
// sequence-number argument.
//
// Edges are implicit: program order is idx-1, a receive's edge is its
// matched send, and a collective instance makes every participant's
// predecessor happen-before every participant. All participants therefore
// share one clock, the join of those predecessors, built once when the
// first participant is processed (see hbJoin for its cost).
//
// Events are processed in (tend, tstart, rank, idx) order, a k-way merge
// of the ranks' lists. A rank whose events go backwards in (tend, tstart)
// fails before any clock is built, naming its first inverted pair.
//
// vc[r] = number of rank-r MPI events known (inclusive), exact for every
// rank r other than the event's own. The own entry is implicit (idx+1):
// orderedIO reads only cross-rank entries, and merging an event sets its
// own entry explicitly. That lets clocks be shared: an event whose only
// predecessor is the previous event on its rank shares that event's slice,
// and every participant of a collective instance shares the instance's
// join.
func buildHBOver(events [][]hbEvent) (*HB, error) {
	hb := &HB{ranks: len(events), events: events, vcs: make([][][]int32, len(events))}

	// Queue sends and gather collective instances.
	sendQueues := make(map[[3]int][]nodeID) // (src,dst,tag) -> send nodes in order
	recvCount := make(map[[3]int]int)
	colls := make(map[int64]*hbColl)
	participants := 0
	for rank, evs := range events {
		hb.vcs[rank] = make([][]int32, len(evs))
		for i := range evs {
			ev := &evs[i]
			switch {
			case ev.fn == recorder.FuncMPISend:
				key := [3]int{rank, int(ev.peer), int(ev.tag)}
				sendQueues[key] = append(sendQueues[key], nodeID{rank, i})
			case ev.seq >= 0:
				c := colls[ev.seq]
				if c == nil {
					c = &hbColl{}
					colls[ev.seq] = c
				}
				c.n++
				participants++
			}
		}
	}
	// Every instance's participant list is carved out of one arena.
	arena := make([]nodeID, participants)
	for _, c := range colls {
		c.parts, arena = arena[:0:c.n], arena[c.n:]
	}
	// List the participants, and match receives to sends: sendOf[rank][i]
	// is receive i's send, for the ranks that receive.
	sendOf := make([][]nodeID, len(events))
	for rank, evs := range events {
		for i := range evs {
			ev := &evs[i]
			if ev.seq >= 0 {
				c := colls[ev.seq]
				c.parts = append(c.parts, nodeID{rank, i})
			}
			if ev.fn != recorder.FuncMPIRecv {
				continue
			}
			if sendOf[rank] == nil {
				sendOf[rank] = make([]nodeID, len(evs))
			}
			key := [3]int{int(ev.peer), rank, int(ev.tag)}
			k := recvCount[key]
			recvCount[key] = k + 1
			sends := sendQueues[key]
			if k >= len(sends) {
				return nil, fmt.Errorf("core: receive %d on rank %d from %d tag %d has no matching send",
					k, rank, ev.peer, ev.tag)
			}
			sendOf[rank][i] = sends[k]
		}
	}

	// Program order must agree with timestamp order on every rank: the
	// first inverted pair, lowest rank then lowest index, would be
	// processed successor first.
	for rank, evs := range events {
		for i := 1; i < len(evs); i++ {
			a, b := &evs[i-1], &evs[i]
			if b.tend < a.tend || b.tend == a.tend && b.tstart < a.tstart {
				return nil, errNotProcessed(nodeID{rank, i - 1}, nodeID{rank, i})
			}
		}
	}

	// Vector clocks in (tend, tstart, rank, idx) order: simulation
	// timestamps respect the edges, so this is a valid topological order.
	// Each rank's events are already in it, so a k-way merge of the
	// ranks visits every event once.
	m := newHBMerge(events)
	zero := make([]int32, hb.ranks)
	for m.len() > 0 {
		n := m.pop()
		ev := &events[n.rank][n.idx]
		var vc []int32
		switch {
		case ev.seq >= 0:
			c := colls[ev.seq]
			if c.join == nil {
				// n's own predecessor first, then the others' in rank
				// order: the order in which an unprocessed one is reported.
				j := hbJoin{hb: hb, into: make([]int32, hb.ranks)}
				if err := j.addPred(n, n); err != nil {
					return nil, err
				}
				for _, a := range c.parts {
					if a != n {
						if err := j.addPred(a, n); err != nil {
							return nil, err
						}
					}
				}
				c.join = j.into
			}
			vc = c.join
		case ev.fn == recorder.FuncMPIRecv:
			j := hbJoin{hb: hb, into: make([]int32, hb.ranks)}
			if err := j.addPred(n, n); err != nil {
				return nil, err
			}
			if err := j.add(sendOf[n.rank][n.idx], n); err != nil {
				return nil, err
			}
			vc = j.into
		case n.idx > 0:
			p := nodeID{n.rank, n.idx - 1}
			if vc = hb.vcs[p.rank][p.idx]; vc == nil {
				return nil, errNotProcessed(p, n)
			}
		default:
			vc = zero
		}
		hb.vcs[n.rank][n.idx] = vc
	}
	return hb, nil
}

// hbMerge is a k-way merge of per-rank event lists, each already in
// timestamp order, into (tend, tstart, rank, idx) order: a binary min-heap
// of the ranks that have events left, each entry holding the key of its
// rank's next event.
type hbMerge struct {
	events [][]hbEvent
	next   []int // next[rank] is rank's next unvisited index
	heap   []hbHead
}

type hbHead struct {
	tend, tstart uint64
	rank         int
}

func (a *hbHead) less(b *hbHead) bool {
	if a.tend != b.tend {
		return a.tend < b.tend
	}
	if a.tstart != b.tstart {
		return a.tstart < b.tstart
	}
	return a.rank < b.rank
}

func newHBMerge(events [][]hbEvent) *hbMerge {
	m := &hbMerge{events: events, next: make([]int, len(events))}
	for rank, evs := range events {
		if len(evs) > 0 {
			m.heap = append(m.heap, hbHead{})
			m.up(len(m.heap)-1, hbHead{evs[0].tend, evs[0].tstart, rank})
		}
	}
	return m
}

func (m *hbMerge) len() int { return len(m.heap) }

// pop returns the least next event and advances its rank.
func (m *hbMerge) pop() nodeID {
	rank := m.heap[0].rank
	n := nodeID{rank, m.next[rank]}
	m.next[rank]++
	if evs := m.events[rank]; m.next[rank] < len(evs) {
		ev := &evs[m.next[rank]]
		m.replaceTop(hbHead{ev.tend, ev.tstart, rank})
	} else {
		last := len(m.heap) - 1
		x := m.heap[last]
		m.heap = m.heap[:last]
		if last > 0 {
			m.replaceTop(x)
		}
	}
	return n
}

// replaceTop puts x in place of the heap's least entry, bottom-up: the
// hole sinks along the lesser children to a leaf, one comparison a level,
// and x rises from there. A rank's next event usually sorts after most
// other ranks' (all ranks meet at each collective), so x rises little.
func (m *hbMerge) replaceTop(x hbHead) {
	h := m.heap
	i := 0
	for c := 1; c < len(h); c = 2*i + 1 {
		if r := c + 1; r < len(h) && h[r].less(&h[c]) {
			c = r
		}
		h[i] = h[c]
		i = c
	}
	m.up(i, x)
}

// up places x at heap slot i after moving down every ancestor of the slot
// that x is less than.
func (m *hbMerge) up(i int, x hbHead) {
	h := m.heap
	for i > 0 {
		p := (i - 1) / 2
		if !x.less(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// hbJoin builds one clock as the join of predecessors' clocks. Clocks are
// shared, so consecutive predecessors often hold the same slice: one that
// was just merged only raises its owner's implicit entry. A join of P
// predecessors over R ranks then costs O(R + P) when their clocks are
// shared, O(P·R) when they are all distinct.
type hbJoin struct {
	hb   *HB
	into []int32
	last []int32 // the clock merged last
}

// addPred merges the clock of a's program-order predecessor, if a has
// one, into the clock being built for n.
func (j *hbJoin) addPred(a, n nodeID) error {
	if a.idx == 0 {
		return nil
	}
	return j.add(nodeID{a.rank, a.idx - 1}, n)
}

// add takes the entrywise max of predecessor p's clock into the clock
// being built for n, including p's implicit own entry.
func (j *hbJoin) add(p, n nodeID) error {
	pv := j.hb.vcs[p.rank][p.idx]
	if pv == nil {
		return errNotProcessed(p, n)
	}
	if j.last == nil || &pv[0] != &j.last[0] { // every clock has one entry per rank
		for r, x := range pv[:len(j.into)] {
			j.into[r] = max(j.into[r], x)
		}
		j.last = pv
	}
	j.into[p.rank] = max(j.into[p.rank], int32(p.idx+1))
	return nil
}

func errNotProcessed(p, n nodeID) error {
	return fmt.Errorf("core: predecessor %v of %v not yet processed (timestamps violate happens-before)", p, n)
}

func isCollective(f recorder.Func) bool {
	switch f {
	case recorder.FuncMPIBarrier, recorder.FuncMPIBcast, recorder.FuncMPIReduce,
		recorder.FuncMPIAllreduce, recorder.FuncMPIGather, recorder.FuncMPIGatherv,
		recorder.FuncMPIScatter, recorder.FuncMPIAllgather, recorder.FuncMPIAlltoall:
		return true
	}
	return false
}

// orderedIO reports whether an I/O operation on rankA ending at tAEnd
// happens-before an I/O operation on rankB starting at tB, according to the
// program's synchronization. Same-rank operations are ordered by program
// order; cross-rank ordering requires an MPI event on rankA at or after
// tAEnd that happens-before an MPI event on rankB at or before tB.
func (hb *HB) orderedIO(rankA int32, tAEnd uint64, rankB int32, tB uint64) bool {
	if rankA == rankB {
		return tAEnd <= tB
	}
	x := hb.firstEventAtOrAfter(int(rankA), tAEnd)
	y := hb.lastEventAtOrBefore(int(rankB), tB)
	if x < 0 || y < 0 {
		return false
	}
	// Same collective instance: entry at all ranks precedes completion at
	// any rank, so the pair is synchronized.
	if sx := hb.events[rankA][x].seq; sx >= 0 && sx == hb.events[rankB][y].seq {
		return true
	}
	return hb.vcs[rankB][y][rankA] >= int32(x+1)
}

func (hb *HB) firstEventAtOrAfter(rank int, t uint64) int {
	evs := hb.events[rank]
	for i := range evs {
		if evs[i].tstart >= t {
			return i
		}
	}
	return -1
}

func (hb *HB) lastEventAtOrBefore(rank int, t uint64) int {
	evs := hb.events[rank]
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].tend <= t {
			return i
		}
	}
	return -1
}

// ValidateConflicts checks the §5.2 property for a set of detected
// conflicts: every conflicting pair must be ordered by the program's
// synchronization (the applications are race-free). It returns the pairs
// that are NOT provably ordered.
func ValidateConflicts(hb *HB, conflicts []Conflict) []Conflict {
	var unordered []Conflict
	for _, c := range conflicts {
		if !hb.orderedIO(c.First.Rank, c.First.TEnd, c.Second.Rank, c.Second.T) {
			unordered = append(unordered, c)
		}
	}
	return unordered
}
