package core

import (
	"fmt"
	"sort"

	"repro/internal/recorder"
)

// buildHBOracle is the per-predecessor happens-before builder BuildHB
// replaced: it materializes every edge in a predecessor list, a collective's
// participants each taking every other participant's predecessor, and
// merges a full clock, own entry included, for every event. That costs
// O(P²·R) per collective instance of P participants over R ranks, so it
// serves only as the reference BuildHB is checked against.
func buildHBOracle(tr *recorder.Trace) (*HB, error) {
	hb := &HB{ranks: len(tr.PerRank)}
	hb.events = make([][]hbEvent, hb.ranks)
	hb.vcs = make([][][]int32, hb.ranks)

	for rank, rs := range tr.PerRank {
		for i := range rs {
			if rs[i].Layer != recorder.LayerMPI {
				continue
			}
			hb.events[rank] = append(hb.events[rank], newHBEvent(&rs[i]))
		}
		hb.vcs[rank] = make([][]int32, len(hb.events[rank]))
	}

	preds := make(map[nodeID][]nodeID)
	sendQueues := make(map[[3]int][]nodeID)
	recvCount := make(map[[3]int]int)
	collParts := make(map[int64][]nodeID)

	for rank := range hb.events {
		for i := range hb.events[rank] {
			n := nodeID{rank, i}
			if i > 0 {
				preds[n] = append(preds[n], nodeID{rank, i - 1})
			}
			ev := &hb.events[rank][i]
			switch ev.fn {
			case recorder.FuncMPISend:
				key := [3]int{rank, int(ev.peer), int(ev.tag)}
				sendQueues[key] = append(sendQueues[key], n)
			default:
				if ev.seq >= 0 {
					collParts[ev.seq] = append(collParts[ev.seq], n)
				}
			}
		}
	}
	for rank := range hb.events {
		for i := range hb.events[rank] {
			ev := &hb.events[rank][i]
			if ev.fn != recorder.FuncMPIRecv {
				continue
			}
			key := [3]int{int(ev.peer), rank, int(ev.tag)}
			k := recvCount[key]
			recvCount[key] = k + 1
			sends := sendQueues[key]
			if k >= len(sends) {
				return nil, fmt.Errorf("core: receive %d on rank %d from %d tag %d has no matching send",
					k, rank, ev.peer, ev.tag)
			}
			n := nodeID{rank, i}
			preds[n] = append(preds[n], sends[k])
		}
	}
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

	order := make([]nodeID, 0)
	for rank := range hb.events {
		for i := range hb.events[rank] {
			order = append(order, nodeID{rank, i})
		}
	}
	sort.Slice(order, func(a, b int) bool {
		ea := hb.events[order[a].rank][order[a].idx]
		eb := hb.events[order[b].rank][order[b].idx]
		if ea.tend != eb.tend {
			return ea.tend < eb.tend
		}
		return ea.tstart < eb.tstart
	})
	for _, n := range order {
		vc := make([]int32, hb.ranks)
		for _, p := range preds[n] {
			pv := hb.vcs[p.rank][p.idx]
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
		hb.vcs[n.rank][n.idx] = vc
	}
	return hb, nil
}

// diffHBOracle builds the happens-before relation of tr with BuildHB and
// with buildHBOracle and describes the first difference: in the error text,
// in the events, or in any event's cross-rank clock entry (own entries are
// implicit in BuildHB and never read). It returns "" when they agree.
func diffHBOracle(tr *recorder.Trace) string {
	got, gotErr := BuildHB(tr)
	want, wantErr := buildHBOracle(tr)
	if gotErr != nil || wantErr != nil {
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			return fmt.Sprintf("error %q, oracle %q", fmt.Sprint(gotErr), fmt.Sprint(wantErr))
		}
		return ""
	}
	for rank := range want.events {
		if len(got.events[rank]) != len(want.events[rank]) {
			return fmt.Sprintf("rank %d: %d events, oracle %d", rank, len(got.events[rank]), len(want.events[rank]))
		}
		for i, w := range want.events[rank] {
			if got.events[rank][i] != w {
				return fmt.Sprintf("event %v: %+v, oracle %+v", nodeID{rank, i}, got.events[rank][i], w)
			}
			g, wv := got.vcs[rank][i], want.vcs[rank][i]
			for r := range wv {
				if r != rank && g[r] != wv[r] {
					return fmt.Sprintf("event %v: vc[%d] = %d, oracle %d", nodeID{rank, i}, r, g[r], wv[r])
				}
			}
		}
	}
	return ""
}
