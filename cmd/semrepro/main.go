// Command semrepro regenerates every table and figure of the paper's
// evaluation section from freshly simulated runs: Table 1 (PFS
// categorization), Table 3 (high-level patterns), Table 4 (conflicts under
// session/commit semantics), Table 5 (configuration inventory), Figure 1
// (access-pattern mixes), Figure 2 (FLASH access scatter CSVs) and Figure 3
// (metadata census). Results land in the output directory as text and CSV.
//
// Usage:
//
//	semrepro -out results -ranks 64 -ppn 8
//	semrepro -out results -checkpoint ckptdir            # journal as you go
//	semrepro -out results -checkpoint ckptdir -resume    # replay after a crash
//	semrepro -out results -chaos -chaos-seeds 1,2,3
//	semrepro -out results -chaos -chaos-wal              # chaos with per-rank write-ahead logs
//	semrepro -out results -only consistency              # formal-spec-checked cross-model table
//	semrepro -out results -wal-burst -wal-dir wal        # WAL checkpoint burst (SIGKILL-safe)
//	semrepro -out results -wal-recover -wal-dir wal      # salvage, verify zero acked-write loss
//
// Exit codes: 0 = everything completed, 1 = hard failure (no configuration
// produced a result, or an artifact could not be written), 2 = usage error,
// 3 = the run completed in degraded form — some configurations failed, or
// the chaos sweep found invariant violations.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/storage"
	"repro/internal/wal"
)

const (
	exitOK       = 0
	exitError    = 1 // nothing usable was produced
	exitUsage    = 2
	exitDegraded = 3 // partial results or chaos violations
)

func main() { os.Exit(run()) }

func run() (code int) {
	var (
		out        = flag.String("out", "results", "output directory")
		ranks      = flag.Int("ranks", 64, "ranks per run")
		ppn        = flag.Int("ppn", 8, "processes per node")
		seed       = flag.Uint64("seed", 1, "simulation seed")
		semName    = flag.String("semantics", "strong", "consistency model for the sweep: strong|commit|session|eventual")
		only       = flag.String("only", "", "generate a single artifact: table1|table3|table4|table5|figure1|figure2|figure3|verdicts|consistency|walcompare")
		consApps   = flag.String("consistency-apps", "", "comma-separated configuration names for -only consistency (default: full registry)")
		workers    = flag.Int("workers", 0, "how many configurations to run concurrently: 0 = GOMAXPROCS, 1 = serial")
		timeout    = flag.Duration("task-timeout", 0, "abandon any single configuration after this long (0 = no limit)")
		ckptDir    = flag.String("checkpoint", "", "journal completed configurations to this directory (crash-safe)")
		resume     = flag.Bool("resume", false, "replay configurations already journaled in -checkpoint instead of re-running them")
		chaos      = flag.Bool("chaos", false, "run the fault-injection chaos sweep instead of the paper artifacts")
		chaosSeeds = flag.String("chaos-seeds", "1", "comma-separated schedule seeds for -chaos")
		chaosApps  = flag.String("chaos-apps", "", "comma-separated configuration names for -chaos (default: full registry)")
		chaosSem   = flag.String("chaos-semantics", "", "comma-separated consistency models for -chaos (default: all four)")
		chaosWAL   = flag.Bool("chaos-wal", false, "route -chaos runs through per-rank write-ahead logs (exercises drain/retry/degrade under faults)")
		walBurst   = flag.Bool("wal-burst", false, "run the deterministic WAL checkpoint burst into -wal-dir (uses -ranks, -seed, -semantics); safe to SIGKILL")
		walRecover = flag.Bool("wal-recover", false, "recover a (possibly crash-interrupted) WAL burst from -wal-dir and verify zero acked-write loss")
		walDir     = flag.String("wal-dir", "", "write-ahead log directory for -wal-burst / -wal-recover")
		walApps    = flag.String("wal-apps", "", "comma-separated configuration names for -only walcompare (default: the FLASH/HACC burst set)")
		backSpec   = flag.String("backend", "osdisk", "durable storage backend for -checkpoint/-wal-burst/-wal-recover/-chaos state: osdisk | objstore[:delay=D,root=DIR] | flaky[:base=B,seed=N,count=N,kinds=transient|all]")
		tele       obs.CLIFlags
	)
	tele.Register(flag.CommandLine)
	flag.Parse()
	if err := tele.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "semrepro:", err)
		return exitUsage
	}
	defer func() {
		if err := tele.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "semrepro:", err)
			if code == exitOK {
				code = exitError
			}
		}
	}()
	if err := faults.ArmKillPointsFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "semrepro:", err)
		return exitUsage
	}

	if *resume && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "semrepro: -resume requires -checkpoint")
		return exitUsage
	}
	semantics, err := pfs.ParseSemantics(*semName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "semrepro: -semantics:", err)
		return exitUsage
	}
	backend, err := storage.ParseSpec(*backSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "semrepro: -backend:", err)
		return exitUsage
	}
	backend = storage.NewRetry(backend, storage.RetryOptions{})
	osdiskBackend := *backSpec == "osdisk" || *backSpec == ""

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "semrepro:", err)
		return exitError
	}
	scale := experiments.Scale{Ranks: *ranks, PPN: *ppn, Seed: *seed, Semantics: semantics}

	hardErr := false
	write := func(name, content string) {
		path := filepath.Join(*out, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "semrepro:", err)
			hardErr = true
			return
		}
		fmt.Println("wrote", path)
	}

	if *walBurst || *walRecover {
		// WAL burst / recovery legs: a deterministic checkpoint burst whose
		// log directory can be recovered after a crash (or SIGKILL via
		// SEMFS_KILL at a wal.* point) with zero acked-write loss. Both
		// sides must agree on -ranks, -seed and -semantics.
		if *walDir == "" {
			fmt.Fprintln(os.Stderr, "semrepro: -wal-burst/-wal-recover require -wal-dir")
			return exitUsage
		}
		if *walBurst && *walRecover {
			fmt.Fprintln(os.Stderr, "semrepro: -wal-burst and -wal-recover are separate runs")
			return exitUsage
		}
		spec := wal.BurstSpec{Semantics: semantics, Ranks: *ranks, Seed: *seed,
			Log: wal.Options{Dir: *walDir, Backend: backend}}
		if *walBurst {
			if err := backend.MkdirAll(*walDir); err != nil {
				fmt.Fprintln(os.Stderr, "semrepro:", err)
				return exitError
			}
			res, err := wal.RunBurst(spec)
			if err != nil {
				fmt.Fprintln(os.Stderr, "semrepro: wal burst:", err)
				return exitError
			}
			text := wal.FormatBurst(spec, res)
			fmt.Print(text)
			write("wal_burst.txt", text)
			write("wal_state.txt", wal.FormatDump(res.Dump))
			if hardErr {
				return exitError
			}
			if !res.Spec.OK() {
				return exitDegraded
			}
			return exitOK
		}
		rep, err := wal.RecoverBurst(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "semrepro: wal recovery:", err)
			return exitError
		}
		text := wal.FormatReport(rep)
		fmt.Print(text)
		write("wal_recover.txt", text)
		write("wal_state.txt", wal.FormatDump(rep.Dump))
		if hardErr {
			return exitError
		}
		return exitOK
	}

	if *chaos {
		seeds, err := parseSeeds(*chaosSeeds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "semrepro: -chaos-seeds:", err)
			return exitUsage
		}
		sems, err := parseSemanticsList(*chaosSem)
		if err != nil {
			fmt.Fprintln(os.Stderr, "semrepro: -chaos-semantics:", err)
			return exitUsage
		}
		sweepOpts := faults.SweepOptions{
			Apps:      parseList(*chaosApps),
			Semantics: sems,
			Seeds:     seeds,
			Workers:   *workers,
		}
		if *chaosWAL || !osdiskBackend {
			// On osdisk, NoFsync: chaos probes the drain/retry/degrade
			// machinery, not host-disk durability (the kill-and-recover
			// harness covers that). A non-default -backend implies WAL
			// routing — the WAL is the only layer chaos touches a durable
			// backend through — and keeps fsync on, because on objstore/flaky
			// the Sync path is exactly what is under test.
			sweepOpts.WAL = &wal.Options{NoFsync: osdiskBackend, Backend: backend}
		}
		rep, err := faults.Sweep(context.Background(), sweepOpts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "semrepro: chaos:", err)
			return exitError
		}
		text := faults.RenderSweep(rep)
		fmt.Print(text)
		write("chaos_report.txt", text)
		if hardErr {
			return exitError
		}
		if len(rep.Violations) > 0 {
			return exitDegraded
		}
		return exitOK
	}

	want := func(name string) bool { return *only == "" || *only == name }

	if want("table1") {
		write("table1_semantics.txt", experiments.Table1())
	}
	if want("table5") {
		write("table5_configurations.txt", experiments.Table5())
	}
	if *only == "table1" || *only == "table5" {
		if hardErr {
			return exitError
		}
		return exitOK
	}

	if *only == "consistency" {
		// Cross-model comparison with formal-spec verification: each
		// configuration reruns under all four models with the op-history
		// recorder attached, and every history must satisfy its model's
		// executable spec (internal/consistency). Not part of the default
		// artifact set — the 4x rerun cost is opt-in.
		cells, err := experiments.ConsistencyComparison(context.Background(), scale, parseList(*consApps))
		if err != nil {
			fmt.Fprintln(os.Stderr, "semrepro: consistency:", err)
			if len(cells) == 0 {
				return exitError
			}
		}
		write("consistency_models.txt", experiments.ConsistencyTable(cells))
		if hardErr {
			return exitError
		}
		for _, c := range cells {
			if !c.Accepted {
				fmt.Fprintf(os.Stderr, "semrepro: %s under %v rejected by its formal spec (clause %s)\n",
					c.Config, c.Semantics, c.Clause)
				return exitDegraded
			}
		}
		return exitOK
	}

	if *only == "walcompare" {
		// WAL on/off checkpoint-burst table: each cell reruns with the
		// op-history recorder attached and must pass its model's formal
		// spec, so the ack-latency win is only reported for runs proven
		// semantics-preserving. Opt-in like -only consistency (2x reruns).
		cells, err := experiments.WALComparison(context.Background(), scale, parseList(*walApps))
		if err != nil {
			fmt.Fprintln(os.Stderr, "semrepro: walcompare:", err)
			if len(cells) == 0 {
				return exitError
			}
		}
		write("wal_compare.txt", experiments.WALTable(cells))
		if hardErr {
			return exitError
		}
		for _, c := range cells {
			if !c.Accepted {
				fmt.Fprintf(os.Stderr, "semrepro: %s under %v (wal=%v) rejected by its formal spec (clause %s)\n",
					c.Config, c.Semantics, c.WAL, c.Clause)
				return exitDegraded
			}
		}
		return exitOK
	}

	sweep := experiments.SweepOptions{Workers: *workers, TaskTimeout: *timeout, Resume: *resume}
	if *ckptDir != "" {
		store, err := experiments.OpenCheckpointOn(backend, *ckptDir, scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "semrepro: -checkpoint:", err)
			return exitError
		}
		defer store.Close()
		if rs := store.Stats(); rs.Degraded() {
			fmt.Println("checkpoint recovery:", rs.String())
		}
		sweep.Checkpoint = store
	}

	fmt.Printf("running all %d configurations at %d ranks...\n", 25, *ranks)
	results, err := experiments.RunAllCtx(context.Background(), scale, sweep)
	if *ckptDir != "" && results != nil {
		sum := results.Summarize()
		fmt.Printf("checkpoint: %d replayed, %d executed\n", sum.Replayed, sum.Executed)
	}
	degraded := false
	if err != nil {
		// Failures are per-configuration and already wrapped with the failing
		// configuration's name: report every one, then keep going with
		// whatever succeeded rather than losing the whole sweep.
		fmt.Fprintln(os.Stderr, "semrepro: some configurations failed:\n", err)
		if len(results.Ordered) == 0 {
			return exitError
		}
		degraded = true
	}

	if want("table3") {
		write("table3_patterns.txt", experiments.Table3(results))
	}
	if want("table4") {
		write("table4_conflicts.txt", experiments.Table4(results))
	}
	if want("figure1") {
		text, csv := experiments.Figure1(results)
		write("figure1_patterns.txt", text)
		write("figure1_patterns.csv", csv)
	}
	if want("figure2") {
		for name, csv := range experiments.Figure2(results) {
			write("figure2_"+name, csv)
		}
	}
	if want("figure3") {
		write("figure3_metadata.txt", experiments.Figure3(results))
	}
	if want("verdicts") || *only == "" {
		write("verdicts.txt", experiments.VerdictsReport(results))
	}
	if want("metadeps") || *only == "" {
		write("metadata_dependencies.txt", experiments.MetaTable(results))
	}
	if want("reports") || *only == "" {
		// Per-run detailed reports, like the paper's published artifact.
		if err := os.MkdirAll(filepath.Join(*out, "reports"), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "semrepro:", err)
			return exitError
		}
		for _, name := range results.Ordered {
			write(filepath.Join("reports", sanitize(name)+".txt"), results.Analyses[name].Report.Render())
		}
	}
	if hardErr {
		return exitError
	}
	if degraded {
		return exitDegraded
	}
	return exitOK
}

func parseSeeds(s string) ([]uint64, error) {
	var seeds []uint64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %w", part, err)
		}
		seeds = append(seeds, v)
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("no seeds in %q", s)
	}
	return seeds, nil
}

// parseList splits a comma-separated flag value, dropping empty entries.
func parseList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseSemanticsList(s string) ([]pfs.Semantics, error) {
	var out []pfs.Semantics
	for _, name := range parseList(s) {
		sem, err := pfs.ParseSemantics(name)
		if err != nil {
			return nil, err
		}
		out = append(out, sem)
	}
	return out, nil
}

func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		if r == '/' || r == ' ' {
			return '_'
		}
		return r
	}, name)
}
