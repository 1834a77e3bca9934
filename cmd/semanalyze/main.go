// Command semanalyze runs the paper's analysis over a saved trace: conflict
// detection under commit and session semantics, access-pattern
// classification, the metadata-operation census and the happens-before
// validation, then prints the per-application verdict. All of it, the
// -report digest included, is read off one semfs.AnalyzeParallelCtx result:
// one extraction, one conflict sweep and one happens-before build per run.
//
// Usage:
//
//	semanalyze -trace trace/
//	semanalyze -trace trace/ -checkpoint ckptdir -resume
//	semanalyze -trace trace/ -check-consistency
//
// With -checkpoint, each completed analysis is journaled (keyed by the
// trace's configuration name and content fingerprint) and -resume replays
// the cached report — including the original exit code — without re-running
// the analysis.
//
// With -check-consistency, the traced configuration is re-run under all
// four consistency models with the pfs op-history recorder attached, and
// each history is verified against its model's executable formal spec
// (internal/consistency); the cross-model cost table is printed and any
// spec rejection is reported with its counterexample clause.
//
// Exit codes: 0 = clean trace, 1 = the trace could not be loaded or
// analyzed, 2 = usage error, 3 = the analysis itself succeeded but found
// conflicts (unsynchronized pairs when -validate is on, any conflicting
// pairs otherwise) — or, under -check-consistency, a model's history was
// rejected by its formal spec.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	semfs "repro"
	"repro/internal/apps"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pfs"

	// Live /metrics exporter behind the -serve-metrics flag.
	_ "repro/internal/obs/live"
	"repro/internal/storage"
)

const (
	exitClean     = 0
	exitError     = 1 // load or analysis failure
	exitUsage     = 2
	exitConflicts = 3 // analysis completed and found conflicts
)

func main() { os.Exit(run()) }

func run() (code int) {
	var (
		dir      = flag.String("trace", "", "trace directory written by semtrace")
		validate = flag.Bool("validate", true, "validate conflict ordering against MPI happens-before")
		maxShow  = flag.Int("show", 5, "max conflicts to print per file")
		full     = flag.Bool("report", false, "print the full per-run report (function counters, size histogram, per-file table)")
		workers  = flag.Int("workers", 0, "analysis worker pool size: 0 = GOMAXPROCS, 1 = a pool of one (every pass runs serially); the output is identical at every size")
		lenient  = flag.Bool("lenient", false, "salvage valid records from truncated or corrupt rank streams instead of failing")
		ckptDir  = flag.String("checkpoint", "", "journal completed analyses to this directory (crash-safe)")
		resume   = flag.Bool("resume", false, "replay an analysis already journaled in -checkpoint instead of re-running it")
		checkSem = flag.Bool("check-consistency", false, "re-run the traced configuration under all four consistency models and verify each op history against its formal spec")
		spec     = flag.String("backend", "osdisk", "durable storage backend for -trace reads and -checkpoint state: osdisk | objstore[:delay=D,root=DIR] | flaky[:...]")
		tele     obs.CLIFlags
	)
	tele.Register(flag.CommandLine)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "semanalyze: -trace is required")
		return exitUsage
	}
	backend, err := storage.ParseSpec(*spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "semanalyze: -backend:", err)
		return exitUsage
	}
	backend = storage.NewRetry(backend, storage.RetryOptions{})
	if *resume && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "semanalyze: -resume requires -checkpoint")
		return exitUsage
	}
	if err := faults.ArmKillPointsFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "semanalyze:", err)
		return exitUsage
	}
	if err := tele.Start(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "semanalyze:", err)
		return exitUsage
	}
	defer func() {
		if err := tele.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "semanalyze:", err)
			if code == exitClean {
				code = exitError
			}
		}
	}()
	// The load is sharded across the same worker pool as the analysis:
	// rank files decode in parallel regardless of format (columnar or v1,
	// sniffed per file).
	var tr *semfs.Trace
	if *lenient {
		var sal *semfs.Salvage
		tr, sal, err = semfs.LoadTraceLenientOn(backend, *dir, *workers)
		if sal != nil {
			fmt.Println(sal)
		}
	} else {
		tr, err = semfs.LoadTraceOn(backend, *dir, *workers)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "semanalyze:", err)
		return exitError
	}

	if *checkSem {
		return checkConsistency(os.Stdout, tr)
	}

	if *ckptDir == "" {
		return analyze(os.Stdout, tr, *validate, *maxShow, *full, *workers)
	}

	// Checkpointed path: the journal key pins both the trace's identity (its
	// configuration name plus a content fingerprint) and, via the manifest,
	// the analysis flags that shape the output. The cached blob is one exit
	// code byte followed by the rendered report.
	store, err := ckpt.OpenOn(backend, *ckptDir, ckpt.Manifest{
		Kind:   "semanalyze",
		Params: fmt.Sprintf("validate=%v show=%d report=%v lenient=%v", *validate, *maxShow, *full, *lenient),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "semanalyze: -checkpoint:", err)
		return exitError
	}
	defer store.Close()
	key := fmt.Sprintf("%s@%016x", tr.Meta.ConfigName(), faults.TraceFingerprint(tr))

	if *resume {
		if blob, ok := store.Lookup(key); ok && len(blob) >= 1 {
			os.Stdout.Write(blob[1:])
			return int(blob[0])
		}
	}

	var buf bytes.Buffer
	code = analyze(&buf, tr, *validate, *maxShow, *full, *workers)
	os.Stdout.Write(buf.Bytes())
	if code == exitClean || code == exitConflicts {
		// Journal only completed analyses: an error exit must re-run on
		// resume, and a failed append must not pretend to be durable.
		blob := append([]byte{byte(code)}, buf.Bytes()...)
		if err := store.Append(key, blob); err != nil {
			fmt.Fprintln(os.Stderr, "semanalyze: checkpoint:", err)
			return exitError
		}
	}
	return code
}

// checkConsistency re-runs the trace's configuration under all four
// consistency models and verifies each recorded op history against the
// model's executable formal spec. The trace supplies the configuration
// name and scale; the runs themselves are fresh (a saved trace does not
// carry the op-level payloads the checker needs).
func checkConsistency(w io.Writer, tr *semfs.Trace) int {
	name := tr.Meta.ConfigName()
	if _, ok := apps.Lookup(name); !ok {
		fmt.Fprintf(os.Stderr, "semanalyze: -check-consistency: configuration %q is not in the application registry\n", name)
		return exitError
	}
	scale := experiments.TestScale()
	if tr.Meta.Ranks > 0 {
		scale.Ranks = tr.Meta.Ranks
	}
	if tr.Meta.Steps > 0 {
		scale.Params.Steps = tr.Meta.Steps
	}
	cells, err := experiments.ConsistencyComparison(context.Background(), scale, []string{name})
	if err != nil {
		fmt.Fprintln(os.Stderr, "semanalyze: -check-consistency:", err)
		return exitError
	}
	fmt.Fprint(w, experiments.ConsistencyTable(cells))
	rejected := 0
	for _, c := range cells {
		if !c.Accepted {
			rejected++
			fmt.Fprintf(w, "\nREJECTED: %s under %v violates clause %s\n", c.Config, c.Semantics, c.Clause)
		}
	}
	if rejected > 0 {
		fmt.Fprintf(w, "\n%d of %d model histories rejected by their formal specs\n", rejected, len(cells))
		return exitConflicts
	}
	fmt.Fprintf(w, "\nall %d model histories satisfy their formal specs\n", len(cells))
	return exitClean
}

// analyze runs the one analysis over tr and writes its views to w: the run
// report (with full), patterns, conflicts, census, metadata dependencies,
// the happens-before validation (with validate) and the verdict. Hard
// failures go to stderr directly — they are never part of a cached report.
func analyze(w io.Writer, tr *semfs.Trace, validate bool, maxShow int, full bool, workers int) int {
	fmt.Fprintf(w, "trace: %s — %d ranks, %d records\n\n", tr.Meta.ConfigName(), tr.Meta.Ranks, tr.NumRecords())

	an, err := semfs.AnalyzeParallelCtx(context.Background(), tr, workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "semanalyze: %s: %v\n", tr.Meta.ConfigName(), err)
		return exitError
	}
	if full {
		fmt.Fprintln(w, an.Report.Render())
	}

	fmt.Fprintln(w, "High-level access patterns (Table 3):")
	for _, p := range an.Patterns {
		fmt.Fprintf(w, "  %-22s (%d files)\n", p.Key(), len(p.Files))
	}
	gc, gm, gr := an.Global.Pct()
	lc, lm, lr := an.Local.Pct()
	fmt.Fprintf(w, "\nAccess-pattern mix (Figure 1):\n")
	fmt.Fprintf(w, "  global: %5.1f%% consecutive, %5.1f%% monotonic, %5.1f%% random\n", gc, gm, gr)
	fmt.Fprintf(w, "  local:  %5.1f%% consecutive, %5.1f%% monotonic, %5.1f%% random\n", lc, lm, lr)

	conflictsFound := 0
	printConflicts := func(model string, byFile map[string][]core.Conflict) {
		total := 0
		paths := make([]string, 0, len(byFile))
		for path, cs := range byFile {
			total += len(cs)
			paths = append(paths, path)
		}
		conflictsFound += total
		sort.Strings(paths) // map order would make repeated runs diff
		fmt.Fprintf(w, "\nConflicts under %s semantics: %d\n", model, total)
		for _, path := range paths {
			cs := byFile[path]
			fmt.Fprintf(w, "  %s: %d pairs\n", path, len(cs))
			for i, c := range cs {
				if i >= maxShow {
					fmt.Fprintf(w, "    ... %d more\n", len(cs)-i)
					break
				}
				fmt.Fprintf(w, "    %v\n", c)
			}
		}
	}
	printConflicts("session", an.SessionConflicts)
	printConflicts("commit", an.CommitConflicts)

	fmt.Fprintf(w, "\nMetadata operations (Figure 3): %d calls across %d distinct operations\n",
		an.Census.Total(), len(an.Census.Funcs()))
	for _, f := range an.Census.Funcs() {
		fmt.Fprintf(w, "  %-12s", f)
		for _, origin := range an.Census.Origins() {
			if n := an.Census.Counts[origin][f]; n > 0 {
				fmt.Fprintf(w, "  %s:%d", origin, n)
			}
		}
		fmt.Fprintln(w)
	}

	if len(an.MetaConflicts) > 0 {
		fmt.Fprintf(w, "\nCross-process metadata dependencies (relaxed-metadata PFSs): %d\n", len(an.MetaConflicts))
		for i, c := range an.MetaConflicts {
			if i >= maxShow {
				fmt.Fprintf(w, "  ... %d more\n", len(an.MetaConflicts)-i)
				break
			}
			fmt.Fprintf(w, "  %v\n", c)
		}
	} else {
		fmt.Fprintln(w, "\nNo cross-process metadata dependencies (safe for relaxed-metadata PFSs).")
	}

	// With validation on, only unsynchronized pairs (true races) trigger the
	// conflict exit code — synchronized conflicts are the normal shape of a
	// checkpoint protocol. Without it, any conflicting pair counts.
	racy := conflictsFound > 0
	if validate {
		if an.HBErr != nil {
			fmt.Fprintf(os.Stderr, "semanalyze: %s: happens-before: %v\n", tr.Meta.ConfigName(), an.HBErr)
			return exitError
		}
		racy = len(an.Unordered) > 0
		if len(an.Unordered) == 0 {
			fmt.Fprintln(w, "\nHappens-before validation: all conflicting pairs are synchronized (race-free)")
		} else {
			fmt.Fprintf(w, "\nHappens-before validation: %d UNSYNCHRONIZED pairs (data races!)\n", len(an.Unordered))
			for i, c := range an.Unordered {
				if i >= maxShow {
					break
				}
				fmt.Fprintf(w, "  %v\n", c)
			}
		}
	}

	v := an.Verdict
	fmt.Fprintf(w, "\nVerdict: weakest sufficient consistency model = %s\n", v.Weakest)
	if v.NeedsPerProcessOrdering {
		fmt.Fprintln(w, "  (requires per-process ordering; unsafe on BurstFS-style PFSs)")
	}
	if v.Weakest == pfs.Session {
		fmt.Fprintln(w, "  This application can run on session-semantics (close-to-open) file systems.")
	}
	if racy {
		return exitConflicts
	}
	return exitClean
}
