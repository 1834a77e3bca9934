// Command pfsbench sweeps the simulated parallel file system across its
// four consistency models and several canonical HPC write workloads,
// reporting the simulated elapsed time and lock-manager traffic — the
// executable form of the paper's motivation: strict POSIX semantics impose
// per-operation lock round trips that relaxed-semantics PFSs avoid
// (Sections 1 and 3).
//
// Usage:
//
//	pfsbench -ranks 64 -ops 32
//	pfsbench -checkpoint ckptdir -resume   # replay cells a crashed run finished
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/ckpt"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/storage"
)

func main() { os.Exit(run()) }

func run() (code int) {
	var (
		ranks   = flag.Int("ranks", 64, "MPI ranks")
		ppn     = flag.Int("ppn", 8, "processes per node")
		block   = flag.Int64("block", 4096, "bytes per write")
		ops     = flag.Int("ops", 32, "writes per rank")
		ckptDir = flag.String("checkpoint", "", "journal completed cells to this directory (crash-safe)")
		resume  = flag.Bool("resume", false, "replay cells already journaled in -checkpoint instead of re-running them")
		useWAL  = flag.Bool("wal", false, "also run every cell with per-rank write-ahead-log acknowledgement (internal/wal)")
		spec    = flag.String("backend", "osdisk", "durable storage backend for -checkpoint state: osdisk | objstore[:delay=D,root=DIR] | flaky[:...]")
		tele    obs.CLIFlags
	)
	tele.Register(flag.CommandLine)
	flag.Parse()
	if *resume && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "pfsbench: -resume requires -checkpoint")
		return 2
	}
	backend, err := storage.ParseSpec(*spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pfsbench: -backend:", err)
		return 2
	}
	backend = storage.NewRetry(backend, storage.RetryOptions{})
	if err := faults.ArmKillPointsFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "pfsbench:", err)
		return 2
	}
	if err := tele.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "pfsbench:", err)
		return 2
	}
	defer func() {
		if err := tele.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "pfsbench:", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	var store *ckpt.Store
	if *ckptDir != "" {
		var err error
		store, err = ckpt.OpenOn(backend, *ckptDir, ckpt.Manifest{
			Kind:   "pfsbench",
			Ranks:  *ranks,
			PPN:    *ppn,
			Params: fmt.Sprintf("block=%d ops=%d", *block, *ops),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "pfsbench: -checkpoint:", err)
			return 1
		}
		defer store.Close()
	}

	walModes := []bool{false}
	if *useWAL {
		walModes = append(walModes, true)
	}
	var results []experiments.BenchResult
	for _, workload := range experiments.PFSBenchWorkloads() {
		for _, sem := range pfs.AllSemantics() {
			for _, withWAL := range walModes {
				key := workload + "/" + sem.String()
				if withWAL {
					key += "+wal"
				}
				if store != nil && *resume {
					if blob, ok := store.Lookup(key); ok {
						var r experiments.BenchResult
						if err := json.Unmarshal(blob, &r); err == nil {
							results = append(results, r)
							continue
						}
						// Undecodable cache entry: fall through and re-run.
					}
				}
				bench := experiments.PFSBench
				if withWAL {
					bench = experiments.PFSBenchWAL
				}
				r, err := bench(workload, sem, *ranks, *ppn, *block, *ops)
				if err != nil {
					fmt.Fprintln(os.Stderr, "pfsbench:", err)
					return 1
				}
				if store != nil {
					blob, err := json.Marshal(r)
					if err == nil {
						err = store.Append(key, blob)
					}
					if err != nil {
						fmt.Fprintln(os.Stderr, "pfsbench: checkpoint:", err)
						return 1
					}
				}
				results = append(results, r)
			}
		}
	}
	fmt.Print(experiments.PFSBenchTable(results))
	fmt.Println("\nShape to expect: strong pays one lock RPC per write (slowest on shared")
	fmt.Println("files, especially small strided writes); commit/session skip locking;")
	fmt.Println("file-per-process narrows the gap because there is no sharing to serialize.")
	return 0
}
