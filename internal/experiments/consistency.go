package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/consistency"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/wal"
)

// ConsistencyCell is one (configuration, model) cell of the cross-model
// comparison: the model-dependent performance counters of the run, plus
// the formal-spec verdict over its recorded op history.
type ConsistencyCell struct {
	Config    string
	Semantics pfs.Semantics

	ElapsedNS    uint64 // simulated wall time of the traced phase
	LockAcquires int64  // strong-semantics lock round trips

	Events   int    // recorded history length (setup + traced phases)
	Accepted bool   // history satisfies the model's formal spec
	Clause   string // failed predicate clause when rejected
}

// ConsistencyComparison reruns application configurations under all four
// consistency models with the op-history recorder attached, verifies every
// history against the model's executable formal spec (internal/
// consistency), and reports the per-model cost counters — the executable
// analogue of the follow-up paper's cross-model performance comparison
// (simulated time and locking cost per model; see PAPERS.md), with each
// cell certified semantics-conforming by the checker.
//
// names selects configurations (apps.Lookup names); nil means the full
// registry. Cells come back grouped by configuration in registry order.
func ConsistencyComparison(ctx context.Context, s Scale, names []string) ([]ConsistencyCell, error) {
	var cfgs []*apps.Config
	if len(names) == 0 {
		cfgs = apps.Registry()
	} else {
		for _, n := range names {
			cfg, ok := apps.Lookup(n)
			if !ok {
				return nil, fmt.Errorf("experiments: unknown configuration %q", n)
			}
			cfgs = append(cfgs, cfg)
		}
	}
	var cells []ConsistencyCell
	for _, cfg := range cfgs {
		for _, sem := range pfs.AllSemantics() {
			if err := ctx.Err(); err != nil {
				return cells, err
			}
			span := obs.Default().Tracer().Start(cfg.Name()+"/"+sem.String(), "experiments.consistency")
			cell, _, err := specCell(cfg, sem, s, false)
			span.End()
			if err != nil {
				return cells, fmt.Errorf("experiments: %s under %v: %w", cfg.Name(), sem, err)
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// specCell is the one spec-checked run both comparison tables are made of:
// cfg under sem at scale s with the op-history recorder attached, through
// per-rank write-ahead logs when withWAL is set, and the history checked
// against the model's formal spec. It returns the cell and the run, for
// columns of the caller's own.
func specCell(cfg *apps.Config, sem pfs.Semantics, s Scale, withWAL bool) (ConsistencyCell, *harness.Result, error) {
	fs := pfs.New(pfs.Options{Semantics: sem})
	log := consistency.NewLog()
	fs.SetHistoryRecorder(log)
	opts := apps.Options{
		Ranks:     s.Ranks,
		PPN:       s.PPN,
		Seed:      s.Seed,
		Semantics: sem,
		FS:        fs,
		Params:    s.Params,
	}
	if withWAL {
		// The acknowledgement cost model is what the WAL comparison
		// measures; NoFsync only skips host-disk flushes of the
		// simulation's own log files (durability is the kill-and-recover
		// harness's department).
		opts.WAL = &wal.Options{NoFsync: true}
	}
	res, err := apps.Execute(cfg, opts)
	if err != nil {
		return ConsistencyCell{}, nil, err
	}
	if err := res.Err(); err != nil {
		return ConsistencyCell{}, nil, err
	}
	var elapsed uint64
	for _, rs := range res.Trace.PerRank {
		if len(rs) > 0 && rs[len(rs)-1].TEnd > elapsed {
			elapsed = rs[len(rs)-1].TEnd
		}
	}
	check := consistency.CheckLog(sem, log, consistency.Options{
		EventualDelayNS: fs.Options().EventualDelay,
	})
	cell := ConsistencyCell{
		Config:       cfg.Name(),
		Semantics:    sem,
		ElapsedNS:    elapsed,
		LockAcquires: fs.Stats().LockAcquires,
		Events:       check.Events,
		Accepted:     check.OK(),
	}
	if !check.OK() {
		cell.Clause = check.Violation.Clause
	}
	return cell, res, nil
}

// ConsistencyTable renders the cross-model comparison: per configuration,
// one row per model with its simulated time, locking cost and spec verdict.
func ConsistencyTable(cells []ConsistencyCell) string {
	ordered := append([]ConsistencyCell(nil), cells...)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].Config != ordered[j].Config {
			return ordered[i].Config < ordered[j].Config
		}
		return ordered[i].Semantics < ordered[j].Semantics
	})
	var b strings.Builder
	b.WriteString("Cross-model consistency comparison (formal-spec-checked runs)\n\n")
	fmt.Fprintf(&b, "%-20s  %-9s  %12s  %10s  %8s  %s\n",
		"configuration", "semantics", "elapsed(ms)", "lock acqs", "events", "spec")
	b.WriteString(strings.Repeat("-", 72) + "\n")
	for _, c := range ordered {
		verdict := "ok"
		if !c.Accepted {
			verdict = "REJECTED " + c.Clause
		}
		fmt.Fprintf(&b, "%-20s  %-9s  %12.2f  %10d  %8d  %s\n",
			c.Config, c.Semantics, float64(c.ElapsedNS)/1e6, c.LockAcquires, c.Events, verdict)
	}
	return b.String()
}
