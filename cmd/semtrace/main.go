// Command semtrace runs one emulated application configuration on the
// simulated I/O stack and writes its multi-level trace to a directory, the
// way the paper collects Recorder traces on a real system.
//
// Usage:
//
//	semtrace -app FLASH-nofbs -ranks 64 -ppn 8 -out trace/
//	semtrace -list
//
// Traces are written in the columnar format, the only one semanalyze
// reads. A run is deterministic in (app, ranks, PPN, seed): running a
// configuration again regenerates its trace byte for byte. semanalyze
// -trace is the strict check of a saved trace; its error names the first
// damaged rank.
package main

import (
	"flag"
	"fmt"
	"os"

	semfs "repro"
	"repro/internal/obs"
	"repro/internal/storage"
)

func main() { os.Exit(run()) }

func run() (code int) {
	var (
		app       = flag.String("app", "", "application configuration name (see -list)")
		list      = flag.Bool("list", false, "list available application configurations")
		ranks     = flag.Int("ranks", 64, "number of MPI ranks")
		ppn       = flag.Int("ppn", 8, "processes per node")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		steps     = flag.Int("steps", 0, "time steps (0 = app default)")
		block     = flag.Int64("block", 0, "per-rank bytes per dataset (0 = default)")
		semantics = flag.String("semantics", "strong", "PFS consistency model: strong|commit|session|eventual")
		verify    = flag.Bool("verify", false, "verify read data (surfaces stale reads on weak PFSs)")
		out       = flag.String("out", "", "output trace directory (omit for a dry run)")
		tele      obs.CLIFlags
	)
	tele.Register(flag.CommandLine)
	flag.Parse()
	if err := tele.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "semtrace:", err)
		return 2
	}
	defer func() {
		if err := tele.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "semtrace:", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	if *list {
		for _, name := range semfs.Applications() {
			desc, _ := semfs.Describe(name)
			fmt.Printf("%-20s %s\n", name, desc)
		}
		return 0
	}
	if *app == "" {
		fmt.Fprintln(os.Stderr, "semtrace: -app is required (try -list)")
		return 2
	}
	sem, err := parseSemantics(*semantics)
	if err != nil {
		fmt.Fprintln(os.Stderr, "semtrace:", err)
		return 2
	}
	res, err := semfs.Run(*app, semfs.RunOptions{
		Ranks: *ranks, PPN: *ppn, Seed: *seed,
		Steps: *steps, Block: *block,
		Semantics: sem, Verify: *verify,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "semtrace:", err)
		return 1
	}
	fmt.Printf("ran %s: %d ranks, %d trace records\n", *app, *ranks, res.Trace.NumRecords())
	for _, e := range res.RankErrors {
		fmt.Printf("  rank error: %v\n", e)
	}
	if *out != "" {
		backend := storage.NewRetry(storage.OS(), storage.RetryOptions{})
		if err := semfs.SaveTraceOn(backend, *out, res.Trace); err != nil {
			fmt.Fprintln(os.Stderr, "semtrace:", err)
			return 1
		}
		fmt.Printf("trace written to %s (columnar format)\n", *out)
	}
	if len(res.RankErrors) > 0 {
		return 1
	}
	return 0
}

func parseSemantics(s string) (semfs.Semantics, error) {
	switch s {
	case "strong":
		return semfs.Strong, nil
	case "commit":
		return semfs.Commit, nil
	case "session":
		return semfs.Session, nil
	case "eventual":
		return semfs.Eventual, nil
	}
	return semfs.Strong, fmt.Errorf("unknown semantics %q", s)
}
