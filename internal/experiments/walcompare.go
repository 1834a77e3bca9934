package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/pfs"
)

// WAL on/off checkpoint-burst comparison: the payoff table for the
// host-side write-ahead log. Each checkpoint-heavy configuration runs under
// every consistency model twice — once writing straight to the PFS, once
// through per-rank WALs — with the op-history recorder attached. The table
// reports per-write acknowledgement latency (TEnd-TStart of the trace's
// POSIX write records: with the WAL that is the local fsync'd append, not
// the PFS round trip) and certifies every cell's history against the
// model's executable formal spec, so the latency win is only reported for
// runs proven semantics-preserving.

// walApps is the default configuration set for the WAL comparison: the
// paper's two checkpoint-burst archetypes (FLASH with and without forced
// block sizes, HACC-IO via MPI-IO and raw POSIX).
func walApps() []string {
	return []string{"FLASH-fbs", "FLASH-nofbs", "HACC-IO-MPI-IO", "HACC-IO-POSIX"}
}

// WALCell is one (configuration, model, wal on/off) run.
type WALCell struct {
	Config    string
	Semantics pfs.Semantics
	WAL       bool

	Writes    int     // POSIX-layer write records in the traced phase
	AckMeanNS float64 // mean write acknowledgement latency (simulated)
	AckP99NS  uint64  // 99th-percentile write acknowledgement latency

	Accepted bool   // history satisfies the model's formal spec
	Clause   string // failed predicate clause when rejected
}

// WALComparison runs names (default walApps) under all four models with the
// WAL off and on. Cells come back grouped by configuration, then model,
// with the off cell before the on cell.
func WALComparison(ctx context.Context, s Scale, names []string) ([]WALCell, error) {
	if len(names) == 0 {
		names = walApps()
	}
	var cells []WALCell
	for _, name := range names {
		cfg, ok := apps.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown configuration %q", name)
		}
		for _, sem := range pfs.AllSemantics() {
			for _, withWAL := range []bool{false, true} {
				if err := ctx.Err(); err != nil {
					return cells, err
				}
				span := obs.Default().Tracer().Start(
					fmt.Sprintf("%s/%s/wal=%v", cfg.Name(), sem, withWAL), "experiments.wal")
				sc, res, err := specCell(cfg, sem, s, withWAL)
				span.End()
				if err != nil {
					return cells, fmt.Errorf("experiments: %s under %v (wal=%v): %w",
						cfg.Name(), sem, withWAL, err)
				}
				cell := WALCell{Config: sc.Config, Semantics: sem, WAL: withWAL,
					Accepted: sc.Accepted, Clause: sc.Clause}
				cell.Writes, cell.AckMeanNS, cell.AckP99NS = ackLatencies(res)
				cells = append(cells, cell)
			}
		}
	}
	return cells, nil
}

// ackLatencies returns a run's POSIX write count and the mean and 99th
// percentile of their acknowledgement latency (TEnd-TStart, simulated).
func ackLatencies(res *harness.Result) (n int, mean float64, p99 uint64) {
	var lats []uint64
	var sum float64
	for rank := range res.Trace.PerRank {
		for s := res.Trace.Stream(rank); s.Next(); {
			if r := s.Record(); r.IsWriteOp() {
				d := r.TEnd - r.TStart
				lats = append(lats, d)
				sum += float64(d)
			}
		}
	}
	if len(lats) == 0 {
		return 0, 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return len(lats), sum / float64(len(lats)), lats[len(lats)*99/100]
}

// WALTable renders the comparison: one row per (configuration, model) with
// the direct and WAL-mediated ack latencies side by side and the speedup.
func WALTable(cells []WALCell) string {
	type key struct {
		cfg string
		sem pfs.Semantics
	}
	rows := map[key][2]*WALCell{}
	var order []key
	for i := range cells {
		c := &cells[i]
		k := key{c.Config, c.Semantics}
		pair, seen := rows[k]
		if !seen {
			order = append(order, k)
		}
		if c.WAL {
			pair[1] = c
		} else {
			pair[0] = c
		}
		rows[k] = pair
	}
	var b strings.Builder
	b.WriteString("Checkpoint-burst write acknowledgement: direct PFS vs host-side WAL\n")
	b.WriteString("(simulated ns per POSIX write; every cell formal-spec-checked)\n\n")
	fmt.Fprintf(&b, "%-16s  %-9s  %7s  %13s  %13s  %8s  %13s  %13s  %s\n",
		"configuration", "semantics", "writes",
		"direct mean", "wal mean", "speedup", "direct p99", "wal p99", "spec")
	b.WriteString(strings.Repeat("-", 118) + "\n")
	for _, k := range order {
		pair := rows[k]
		off, on := pair[0], pair[1]
		if off == nil || on == nil {
			continue
		}
		speedup := "-"
		if on.AckMeanNS > 0 {
			speedup = fmt.Sprintf("%.1fx", off.AckMeanNS/on.AckMeanNS)
		}
		verdict := "ok"
		if !off.Accepted {
			verdict = "REJECTED(direct) " + off.Clause
		}
		if !on.Accepted {
			verdict = "REJECTED(wal) " + on.Clause
		}
		fmt.Fprintf(&b, "%-16s  %-9s  %7d  %13.0f  %13.0f  %8s  %13d  %13d  %s\n",
			k.cfg, k.sem, on.Writes, off.AckMeanNS, on.AckMeanNS, speedup,
			off.AckP99NS, on.AckP99NS, verdict)
	}
	return b.String()
}
