// Command semanalyze runs the paper's analysis over a saved trace: conflict
// detection under commit and session semantics, access-pattern
// classification, the metadata-operation census and the happens-before
// validation, then prints the per-application verdict. All of it, the
// -report digest included, is read off one semfs.Analysis: one scan of the
// rank streams, one conflict sweep and one happens-before build per run.
// semfs.AnalyzeDirOn (semfs.AnalyzeDirLenientOn with -lenient, which first
// prints a "salvage:" line) folds each mapped rank file in place, so the
// trace is never loaded as records.
//
// Usage:
//
//	semanalyze -trace trace/
//	semanalyze -trace trace/ -lenient
//	semanalyze -trace trace/ -check-consistency
//
// With -check-consistency, the traced configuration is re-run under all
// four consistency models with the pfs op-history recorder attached, and
// each history is verified against its model's executable formal spec
// (internal/consistency); the cross-model table (simulated time, lock
// acquisitions, history events and spec verdict per model) is printed and
// any spec rejection is reported with its counterexample clause. It decodes no
// rank file (it only checks that each exists), so a damaged one cannot fail it.
//
// The report goes to standard output through one buffered writer.
//
// Exit codes: 0 = clean trace, 1 = the trace could not be loaded or
// analyzed, or the output could not be written, 2 = usage error, 3 = the
// analysis itself succeeded but found conflicts (unsynchronized pairs when
// -validate is on, any conflicting pairs otherwise) — or, under
// -check-consistency, a model's history was rejected by its formal spec.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	semfs "repro"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/recorder"
	"repro/internal/recorder/colfmt"
	"repro/internal/storage"
)

const (
	exitClean     = 0
	exitError     = 1 // load, analysis or output failure
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
		checkSem = flag.Bool("check-consistency", false, "re-run the traced configuration under all four consistency models and verify each op history against its formal spec")
		spec     = flag.String("backend", "osdisk", "durable storage backend for -trace reads: osdisk | objstore[:delay=D,root=DIR] | flaky[:...]")
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
	if err := faults.ArmKillPointsFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "semanalyze:", err)
		return exitUsage
	}
	if err := tele.Start(); err != nil {
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
	if *checkSem {
		return checkConsistency(os.Stdout, backend, *dir)
	}
	return analyzeDir(os.Stdout, backend, *dir, *lenient, *validate, *maxShow, *full, *workers)
}

// checkConsistency re-runs a trace directory's configuration under all
// four consistency models and verifies each recorded op history against
// the model's executable formal spec. trace.meta supplies the configuration
// name and scale (ranks, PPN, seed and steps when set); the rank files are
// only checked to exist, as the runs are fresh: a saved trace does not
// carry the op-level payloads the checker needs.
func checkConsistency(w io.Writer, b storage.Backend, dir string) (code int) {
	meta, err := colfmt.MetaOn(b, dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "semanalyze:", err)
		return exitError
	}
	name := meta.ConfigName()
	if _, ok := apps.Lookup(name); !ok {
		fmt.Fprintf(os.Stderr, "semanalyze: -check-consistency: configuration %q is not in the application registry\n", name)
		return exitError
	}
	for rank := range meta.Ranks {
		if _, err := b.Stat(filepath.Join(dir, recorder.RankFileName(rank))); err != nil {
			fmt.Fprintln(os.Stderr, "semanalyze: -check-consistency:", err)
			return exitError
		}
	}
	scale := experiments.TestScale()
	scale.Ranks = meta.Ranks // colfmt.MetaOn guarantees at least one
	if meta.PPN > 0 {
		scale.PPN = meta.PPN
	}
	if meta.Seed != 0 {
		scale.Seed = meta.Seed
	}
	if meta.Steps > 0 {
		scale.Params.Steps = meta.Steps
	}
	cells, err := experiments.ConsistencyComparison(context.Background(), scale, []string{name})
	if err != nil {
		fmt.Fprintln(os.Stderr, "semanalyze: -check-consistency:", err)
		return exitError
	}
	out := bufio.NewWriter(w)
	defer func() { code = flushed(out, code) }()
	w = out
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

// flushed flushes a report's buffered writer and returns code, or
// exitError after reporting a failed write or flush: a report that did not
// reach its reader is not a result.
func flushed(out *bufio.Writer, code int) int {
	if err := out.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "semanalyze:", err)
		return exitError
	}
	return code
}

// analyzeDir analyzes a trace directory without loading it (the analysis
// folds each rank file, mapped, on the same worker pool as its passes) and
// renders the analysis to w, after -lenient's salvage line. -lenient's
// per-rank salvage causes and hard failures go to stderr. A trace that
// cannot be read fails with exactly a strict load's error.
func analyzeDir(w io.Writer, b storage.Backend, dir string, lenient, validate bool, maxShow int, full bool, workers int) int {
	var an *semfs.Analysis
	var err error
	if lenient {
		var sal *semfs.Salvage
		an, sal, err = semfs.AnalyzeDirLenientOn(b, dir, workers)
		if sal != nil {
			if _, werr := fmt.Fprintln(w, sal); werr != nil {
				fmt.Fprintln(os.Stderr, "semanalyze:", werr)
				return exitError
			}
			// Why each degraded rank lost records: the salvage line only
			// counts them.
			for _, e := range sal.Errs {
				fmt.Fprintln(os.Stderr, "semanalyze:", e)
			}
		}
	} else {
		an, err = semfs.AnalyzeDirOn(b, dir, workers)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "semanalyze:", err)
		return exitError
	}
	return render(w, an, validate, maxShow, full)
}

// render writes an analysis's views to w through one buffered writer: the
// trace header, the run report (with full), patterns, conflicts, census,
// metadata dependencies, the happens-before validation (with validate) and
// the verdict.
func render(w io.Writer, an *semfs.Analysis, validate bool, maxShow int, full bool) (code int) {
	out := bufio.NewWriterSize(w, 64<<10)
	defer func() { code = flushed(out, code) }()
	w = out
	// line is the one buffer every conflict listing line is formatted into.
	var line []byte
	writeConflict := func(indent string, c core.Conflict) {
		line = append(line[:0], indent...)
		line = c.AppendText(line)
		line = append(line, '\n')
		out.Write(line) // a failed write sticks to out; flushed reports it
	}

	fmt.Fprintf(w, "trace: %s — %d ranks, %d records\n\n", an.Report.Config, an.Report.Ranks, an.Report.Records)
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

	// The per-path listings walk the report's files, which are in path
	// order and carry each file's conflict counts, so only a file with
	// conflicts is looked up.
	conflictsFound := 0
	printConflicts := func(model string, byFile map[string][]core.Conflict, commit bool) {
		count := func(i int) int {
			if commit {
				return an.Report.Files[i].CommitConflicts
			}
			return an.Report.Files[i].SessionConflicts
		}
		total := 0
		for i := range an.Report.Files {
			total += count(i)
		}
		conflictsFound += total
		fmt.Fprintf(w, "\nConflicts under %s semantics: %d\n", model, total)
		for i := range an.Report.Files {
			if count(i) == 0 {
				continue
			}
			path := an.Report.Files[i].Path
			cs := byFile[path]
			line = append(line[:0], "  "...)
			line = append(line, path...)
			line = append(line, ": "...)
			line = strconv.AppendInt(line, int64(len(cs)), 10)
			line = append(line, " pairs\n"...)
			out.Write(line)
			for k, c := range cs {
				if k >= maxShow {
					line = append(line[:0], "    ... "...)
					line = strconv.AppendInt(line, int64(len(cs)-k), 10)
					line = append(line, " more\n"...)
					out.Write(line)
					break
				}
				writeConflict("    ", c)
			}
		}
	}
	printConflicts("session", an.SessionConflicts, false)
	printConflicts("commit", an.CommitConflicts, true)

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
			fmt.Fprintf(os.Stderr, "semanalyze: %s: happens-before: %v\n", an.Report.Config, an.HBErr)
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
				writeConflict("  ", c)
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
