package faults

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	semfs "repro"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/pfs"
	"repro/internal/recorder"
	"repro/internal/sim"
	"repro/internal/wal"
)

// The chaos harness: replay every application configuration under fault
// schedules across the four consistency models and check the invariants
// that must hold no matter what the schedule does:
//
//  1. Schedule determinism — regenerating a cell's schedule from its seed
//     yields byte-identical encode output.
//  2. Containment — the run completes (a crashed rank detaches; survivors
//     never wedge) and produces a valid, aligned trace.
//  3. Crash attribution — every rank a crash injection killed surfaces a
//     rank error; under Strong semantics with zero fired faults, no rank
//     errors at all (the baseline guarantee), while weaker models may
//     legitimately fail verification — that is what the conflict detector
//     is for, so the analysis must still classify the trace.
//  4. Analyzability — the full conflict analysis completes on every faulted
//     trace and yields a verdict.
//  5. Replay determinism (optional) — re-running a cell reproduces the
//     byte-identical trace and the same fault event log.

// SweepOptions configures a chaos sweep.
type SweepOptions struct {
	// Apps selects configurations by display name; nil means the full
	// registry.
	Apps []string
	// Semantics lists the consistency models; nil means all four.
	Semantics []pfs.Semantics
	// Seeds drive schedule generation and the simulation; nil means {1}.
	Seeds []uint64
	// Kinds restricts the fault taxonomy; nil means all kinds.
	Kinds []Kind
	// Workers sizes the sweep pool (<= 0 selects GOMAXPROCS).
	Workers int
	// Replay re-runs every cell and checks byte-identical traces and fault
	// event logs. Doubles the cost.
	Replay bool
	// WAL routes every rank's writes through a host-side write-ahead log
	// (internal/wal), so the fault schedules also exercise its in-call
	// drain, retry and degradation paths. Leave Dir empty: each rank log
	// then manages its own private temp directory.
	WAL *wal.Options
}

func (o SweepOptions) withDefaults() SweepOptions {
	if len(o.Apps) == 0 {
		o.Apps = apps.Names()
	}
	if len(o.Semantics) == 0 {
		o.Semantics = []pfs.Semantics{pfs.Strong, pfs.Commit, pfs.Session, pfs.Eventual}
	}
	if len(o.Seeds) == 0 {
		o.Seeds = []uint64{1}
	}
	return o
}

// The size of each chaos run: small, because the faults matter more than
// the scale.
const (
	chaosRanks = 4
	chaosPPN   = 2
)

// Cell is one (application, semantics, seed) replay.
type Cell struct {
	App       string
	Semantics pfs.Semantics
	Seed      uint64
	// ScheduleFP fingerprints the fault schedule the cell ran under.
	ScheduleFP uint64
	// Fired counts injections that actually fired during the run.
	Fired int
	// Tallies break scheduled versus fired down per fault kind (taxonomy
	// order; empty when the cell failed before its run completed).
	Tallies []KindTally
	// RankErrors counts failed ranks (crashes, exhausted retries, failed
	// verification under weak semantics).
	RankErrors int
	// Weakest is the verdict of the post-run conflict analysis.
	Weakest pfs.Semantics
	// Err is a hard failure: the run or its analysis did not complete.
	Err error
}

// Violation is one invariant breach.
type Violation struct {
	Cell Cell
	Desc string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s/%s/seed=%d: %s", v.Cell.App, v.Cell.Semantics, v.Cell.Seed, v.Desc)
}

// Report is the outcome of a sweep.
type Report struct {
	Cells      []Cell
	Violations []Violation
	TotalFired int
}

// kindSummary aggregates the per-kind tallies over every cell of the sweep:
// how many injections each fault kind scheduled, how many fired, and how
// many were suppressed (the rank never reached the targeted operation).
func (rep *Report) kindSummary() []KindTally {
	sum := make([]KindTally, numKinds)
	for k := Kind(0); k < numKinds; k++ {
		sum[k].Kind = k
	}
	for _, c := range rep.Cells {
		for _, t := range c.Tallies {
			sum[t.Kind].Scheduled += t.Scheduled
			sum[t.Kind].Fired += t.Fired
		}
	}
	return sum
}

// Sweep runs the chaos matrix. The returned error is non-nil only for a
// cancelled context; invariant breaches are reported as Violations, and
// per-cell hard failures land both in the cell's Err and in Violations.
func Sweep(ctx context.Context, o SweepOptions) (*Report, error) {
	o = o.withDefaults()
	type key struct {
		app  int
		sem  int
		seed int
	}
	var cells []key
	for a := range o.Apps {
		for s := range o.Semantics {
			for sd := range o.Seeds {
				cells = append(cells, key{a, s, sd})
			}
		}
	}
	out := make([]Cell, len(cells))
	viols := make([][]Violation, len(cells))
	err := core.ParallelForCtx(ctx, len(cells), o.Workers, func(i int) {
		k := cells[i]
		out[i], viols[i] = runChaosCell(o, o.Apps[k.app], o.Semantics[k.sem], o.Seeds[k.seed])
	})
	rep := &Report{}
	for i := range out {
		if out[i].App == "" {
			continue // cell never ran (cancelled mid-sweep)
		}
		rep.Cells = append(rep.Cells, out[i])
		rep.TotalFired += out[i].Fired
		rep.Violations = append(rep.Violations, viols[i]...)
	}
	return rep, err
}

// runChaosCell executes one cell and checks its invariants.
func runChaosCell(o SweepOptions, app string, sem pfs.Semantics, seed uint64) (Cell, []Violation) {
	cell := Cell{App: app, Semantics: sem, Seed: seed}
	var viols []Violation
	violate := func(format string, args ...any) {
		viols = append(viols, Violation{Cell: cell, Desc: fmt.Sprintf(format, args...)})
	}

	// One deterministic sub-seed per cell, derived from the application's
	// *name* (not its position in the sweep's app list): the same cell always
	// runs the same schedule no matter how the sweep was filtered, which is
	// what makes the single-cell reproCommand replay exact.
	h := fnv.New64a()
	h.Write([]byte(app))
	cellSeed := sim.NewRNG(seed).Split(h.Sum64()).Split(uint64(sem)).Uint64()
	gen := genOptions{Ranks: chaosRanks, Kinds: o.Kinds}
	sched := generate(cellSeed, gen)
	cell.ScheduleFP = sched.fingerprint()

	// Invariant 1: schedule generation is deterministic.
	if again := generate(cellSeed, gen); !bytes.Equal(sched.encode(), again.encode()) {
		violate("schedule nondeterminism: seed %d produced different encodings", cellSeed)
		cell.Err = fmt.Errorf("faults: nondeterministic schedule for seed %d", cellSeed)
		return cell, viols
	}

	inj, res, err := replayCell(o, app, sem, seed, sched)
	if err != nil {
		// Invariant 2: containment — the run itself must complete.
		cell.Err = err
		violate("run did not complete: %v", err)
		return cell, viols
	}
	cell.Fired = inj.firedCount()
	cell.Tallies = inj.kindTallies()
	cell.RankErrors = len(res.Errs)

	// Invariant 3: crash attribution.
	for _, r := range inj.crashedRanks() {
		if !rankErrored(res.Errs, r) {
			violate("rank %d was crash-injected but reported no error", r)
		}
	}
	if sem == pfs.Strong && cell.Fired == 0 && cell.RankErrors > 0 {
		violate("strong semantics with zero fired faults still failed %d rank(s): %v",
			cell.RankErrors, res.Errs[0])
	}

	// Invariant 4: the faulted trace must still analyze.
	an, err := semfs.AnalyzeParallelCtx(context.Background(), res.Trace, o.Workers)
	if err != nil {
		cell.Err = err
		violate("analysis failed on faulted trace: %v", err)
		return cell, viols
	}
	cell.Weakest = an.Verdict.Weakest

	// Invariant 5 (optional): replay determinism.
	if o.Replay {
		inj2, res2, err := replayCell(o, app, sem, seed, sched)
		if err != nil {
			cell.Err = err
			violate("replay did not complete: %v", err)
			return cell, viols
		}
		if a, b := traceFingerprint(res.Trace), traceFingerprint(res2.Trace); a != b {
			violate("replay produced a different trace (%016x != %016x)", a, b)
		}
		if a, b := inj.eventLog(), inj2.eventLog(); a != b {
			violate("replay fired different faults:\n--- first\n%s--- second\n%s", a, b)
		}
	}
	return cell, viols
}

// replayCell runs one application under a schedule.
func replayCell(o SweepOptions, app string, sem pfs.Semantics, seed uint64, sched faultSchedule) (*faultInjector, *harness.Result, error) {
	cfg, ok := apps.Lookup(app)
	if !ok {
		return nil, nil, fmt.Errorf("faults: unknown application %q", app)
	}
	inj := newFaultInjector(sched)
	// A chaos-sized workload; the applications' own read-back checks are
	// the oracle.
	p := apps.Params{Steps: 3, CheckpointEvery: 2, Block: 512, Verify: true}
	res, err := apps.Execute(cfg, apps.Options{
		Ranks: chaosRanks, PPN: chaosPPN, Seed: seed, Semantics: sem,
		Injector: inj, Params: p, WAL: o.WAL,
	})
	if err != nil {
		return nil, nil, err
	}
	return inj, res, nil
}

// rankErrored reports whether errs contains a failure attributed to rank r
// (harness errors are prefixed "rank N:" or "rank N panicked").
func rankErrored(errs []error, r int) bool {
	p1 := fmt.Sprintf("rank %d:", r)
	p2 := fmt.Sprintf("rank %d panicked", r)
	for _, e := range errs {
		if s := e.Error(); strings.HasPrefix(s, p1) || strings.HasPrefix(s, p2) {
			return true
		}
	}
	return false
}

// traceFingerprint hashes a trace's columnar encoding (FNV-1a 64 over every
// rank stream in rank order) — the replay-determinism oracle.
func traceFingerprint(tr *recorder.Trace) uint64 {
	h := fnv.New64a()
	for rank := range tr.PerRank {
		if err := tr.WriteStream(h, rank); err != nil {
			// Encoding an in-memory trace only fails on corrupt records;
			// fold the failure into the fingerprint rather than masking it.
			fmt.Fprintf(h, "encode-error rank=%d: %v", rank, err)
		}
	}
	return h.Sum64()
}

// RenderSweep formats a report as a per-application table plus the
// violation list.
func RenderSweep(rep *Report) string {
	type row struct {
		cells, fired, rankErrs int
	}
	byApp := make(map[string]*row)
	var order []string
	for _, c := range rep.Cells {
		r, ok := byApp[c.App]
		if !ok {
			r = &row{}
			byApp[c.App] = r
			order = append(order, c.App)
		}
		r.cells++
		r.fired += c.Fired
		r.rankErrs += c.RankErrors
	}
	sort.Strings(order)
	var b strings.Builder
	b.WriteString("Chaos sweep: fault injection across semantics levels\n\n")
	fmt.Fprintf(&b, "%-20s  %6s  %6s  %9s\n", "application", "cells", "fired", "rank errs")
	b.WriteString(strings.Repeat("-", 48) + "\n")
	for _, app := range order {
		r := byApp[app]
		fmt.Fprintf(&b, "%-20s  %6d  %6d  %9d\n", app, r.cells, r.fired, r.rankErrs)
	}
	b.WriteString("\nFault kinds (scheduled vs fired; suppressed = the rank never reached\nthe targeted operation, e.g. it was already crash-killed):\n\n")
	fmt.Fprintf(&b, "%-20s  %9s  %6s  %10s\n", "kind", "scheduled", "fired", "suppressed")
	b.WriteString(strings.Repeat("-", 52) + "\n")
	for _, t := range rep.kindSummary() {
		fmt.Fprintf(&b, "%-20s  %9d  %6d  %10d\n", t.Kind, t.Scheduled, t.Fired, t.suppressed())
	}
	fmt.Fprintf(&b, "\n%d cells, %d faults fired, %d violation(s)\n",
		len(rep.Cells), rep.TotalFired, len(rep.Violations))
	for _, v := range rep.Violations {
		fmt.Fprintf(&b, "  VIOLATION %s\n", v)
		fmt.Fprintf(&b, "    repro: %s\n", v.Cell.reproCommand())
	}
	return b.String()
}

// reproCommand renders the exact semrepro invocation that replays this cell
// alone — same schedule, same seed, single configuration — so a failing
// chaos cell is one paste away from reproduction.
func (c Cell) reproCommand() string {
	return fmt.Sprintf("semrepro -chaos -chaos-seeds %d -chaos-apps %q -chaos-semantics %s",
		c.Seed, c.App, c.Semantics)
}
