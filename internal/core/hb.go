package core

import (
	"fmt"
	"sort"

	"repro/internal/recorder"
)

// HB is the happens-before relation reconstructed from a trace's MPI-layer
// records, used for the §5.2 validation: matching sends to receives and
// collective invocations to each other, so we can confirm that the
// timestamp order of conflicting I/O operations matches the execution order
// imposed by the program's synchronization.
type HB struct {
	ranks  int
	events [][]hbEvent // per rank, in stream order
}

type hbEvent struct {
	rec *recorder.Record
	vc  []int32 // vc[r] = number of rank-r MPI events known (inclusive)
	seq int64   // collective sequence number, -1 for p2p
}

type nodeID struct{ rank, idx int }

// BuildHB reconstructs the happens-before relation. Send k from r to s with
// a tag matches receive k on s from r with that tag; collective records
// match by their sequence-number argument.
func BuildHB(tr *recorder.Trace) (*HB, error) {
	hb := &HB{ranks: len(tr.PerRank)}
	hb.events = make([][]hbEvent, hb.ranks)

	// Collect MPI events per rank.
	for rank, rs := range tr.PerRank {
		for i := range rs {
			if rs[i].Layer != recorder.LayerMPI {
				continue
			}
			seq := int64(-1)
			if isCollective(rs[i].Func) {
				seq = rs[i].Arg(2)
			}
			hb.events[rank] = append(hb.events[rank], hbEvent{rec: &rs[i], seq: seq})
		}
	}

	// Build edges: program order, send→recv, collective joins (via a
	// virtual node joining every participant's predecessor).
	preds := make(map[nodeID][]nodeID)
	sendQueues := make(map[[3]int][]nodeID) // (src,dst,tag) -> send nodes in order
	recvCount := make(map[[3]int]int)
	collParts := make(map[int64][]nodeID)

	for rank := range hb.events {
		for i := range hb.events[rank] {
			n := nodeID{rank, i}
			if i > 0 {
				preds[n] = append(preds[n], nodeID{rank, i - 1})
			}
			ev := &hb.events[rank][i]
			switch ev.rec.Func {
			case recorder.FuncMPISend:
				key := [3]int{rank, int(ev.rec.Arg(0)), int(ev.rec.Arg(1))}
				sendQueues[key] = append(sendQueues[key], n)
			default:
				if ev.seq >= 0 {
					collParts[ev.seq] = append(collParts[ev.seq], n)
				}
			}
		}
	}
	// Match receives to sends.
	for rank := range hb.events {
		for i := range hb.events[rank] {
			ev := &hb.events[rank][i]
			if ev.rec.Func != recorder.FuncMPIRecv {
				continue
			}
			key := [3]int{int(ev.rec.Arg(0)), rank, int(ev.rec.Arg(1))}
			k := recvCount[key]
			recvCount[key] = k + 1
			sends := sendQueues[key]
			if k >= len(sends) {
				return nil, fmt.Errorf("core: receive %d on rank %d from %d tag %d has no matching send",
					k, rank, ev.rec.Arg(0), ev.rec.Arg(1))
			}
			n := nodeID{rank, i}
			preds[n] = append(preds[n], sends[k])
		}
	}
	// Collectives: every participant's predecessor happens-before every
	// participant's completion.
	for _, parts := range collParts {
		for _, a := range parts {
			if a.idx == 0 {
				continue
			}
			pred := nodeID{a.rank, a.idx - 1}
			for _, b := range parts {
				if b != a {
					preds[b] = append(preds[b], pred)
				}
			}
		}
	}

	// Vector clocks in timestamp order (simulation timestamps respect the
	// edges, so a single pass by TStart is a valid topological order).
	order := make([]nodeID, 0)
	for rank := range hb.events {
		for i := range hb.events[rank] {
			order = append(order, nodeID{rank, i})
		}
	}
	sort.Slice(order, func(a, b int) bool {
		ea := hb.events[order[a].rank][order[a].idx].rec
		eb := hb.events[order[b].rank][order[b].idx].rec
		if ea.TEnd != eb.TEnd {
			return ea.TEnd < eb.TEnd
		}
		return ea.TStart < eb.TStart
	})
	for _, n := range order {
		ev := &hb.events[n.rank][n.idx]
		vc := make([]int32, hb.ranks)
		for _, p := range preds[n] {
			pv := hb.events[p.rank][p.idx].vc
			if pv == nil {
				return nil, fmt.Errorf("core: predecessor %v of %v not yet processed (timestamps violate happens-before)", p, n)
			}
			for r, x := range pv[:len(vc)] {
				vc[r] = max(vc[r], x)
			}
		}
		if own := int32(n.idx + 1); own > vc[n.rank] {
			vc[n.rank] = own
		}
		ev.vc = vc
	}
	return hb, nil
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

// OrderedIO reports whether an I/O operation on rankA ending at tAEnd
// happens-before an I/O operation on rankB starting at tB, according to the
// program's synchronization. Same-rank operations are ordered by program
// order; cross-rank ordering requires an MPI event on rankA at or after
// tAEnd that happens-before an MPI event on rankB at or before tB.
func (hb *HB) OrderedIO(rankA int32, tAEnd uint64, rankB int32, tB uint64) bool {
	if rankA == rankB {
		return tAEnd <= tB
	}
	x := hb.firstEventAtOrAfter(int(rankA), tAEnd)
	y := hb.lastEventAtOrBefore(int(rankB), tB)
	if x < 0 || y < 0 {
		return false
	}
	ex := &hb.events[rankA][x]
	ey := &hb.events[rankB][y]
	// Same collective instance: entry at all ranks precedes completion at
	// any rank, so the pair is synchronized.
	if ex.seq >= 0 && ex.seq == ey.seq {
		return true
	}
	return ey.vc[rankA] >= int32(x+1)
}

func (hb *HB) firstEventAtOrAfter(rank int, t uint64) int {
	evs := hb.events[rank]
	for i := range evs {
		if evs[i].rec.TStart >= t {
			return i
		}
	}
	return -1
}

func (hb *HB) lastEventAtOrBefore(rank int, t uint64) int {
	evs := hb.events[rank]
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].rec.TEnd <= t {
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
		if !hb.OrderedIO(c.First.Rank, c.First.TEnd, c.Second.Rank, c.Second.T) {
			unordered = append(unordered, c)
		}
	}
	return unordered
}
