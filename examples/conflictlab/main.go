// Conflictlab: build a custom I/O protocol with a real cross-process
// read-after-write, watch the detector flag it under both commit and
// session semantics, then fix it twice — once with an fsync (sufficient for
// commit semantics) and once with a close/reopen pair (sufficient for
// session semantics) — exactly the remedies Section 4.1 prescribes.
package main

import (
	"context"
	"fmt"
	"log"

	semfs "repro"
	"repro/internal/recorder"
)

// protocol writes on rank 0 and reads on rank 1 after a barrier, with
// configurable commit/session discipline between the two.
func protocol(fsync, reopen bool) func(ctx *semfs.Ctx) error {
	return func(ctx *semfs.Ctx) error {
		fd, err := ctx.OS.Open("/exchange.dat", recorder.OCreat|recorder.ORdwr, 0o644)
		if err != nil {
			return err
		}
		open := true
		if ctx.Rank == 0 {
			if _, err := ctx.OS.Pwrite(fd, make([]byte, 4096), 0); err != nil {
				return err
			}
			if fsync {
				if err := ctx.OS.Fsync(fd); err != nil {
					return err
				}
			}
			if reopen { // writer closes before the reader opens
				if err := ctx.OS.Close(fd); err != nil {
					return err
				}
				open = false
			}
		}
		ctx.MPI.Barrier() // the synchronization that makes this race-free
		if ctx.Rank == 1 {
			if reopen {
				// Session discipline: drop the stale handle, open fresh
				// after the writer's close.
				if err := ctx.OS.Close(fd); err != nil {
					return err
				}
				if fd, err = ctx.OS.Open("/exchange.dat", recorder.ORdonly, 0); err != nil {
					return err
				}
			}
			if _, err := ctx.OS.Pread(fd, 4096, 0); err != nil {
				return err
			}
		}
		if open {
			return ctx.OS.Close(fd)
		}
		return nil
	}
}

func report(name string, fsync, reopen bool) {
	res, err := semfs.RunCustom(name, semfs.RunOptions{Ranks: 4, PPN: 2}, protocol(fsync, reopen))
	if err != nil || res.Err() != nil {
		log.Fatal(err, res.Err())
	}
	an, err := semfs.AnalyzeParallelCtx(context.Background(), res.Trace, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-28s commit: RAW-D=%-5v   session: RAW-D=%-5v   weakest=%s\n",
		name, an.Verdict.Commit.RAWDiff, an.Verdict.Session.RAWDiff, an.Verdict.Weakest)

	// The detector's finding must be a synchronized (race-free) pair.
	unordered, err := semfs.ValidateSynchronization(res.Trace)
	if err != nil {
		log.Fatal(err)
	}
	if len(unordered) > 0 {
		fmt.Printf("  WARNING: %d unsynchronized pairs (a data race!)\n", len(unordered))
	}
}

func main() {
	fmt.Println("A cross-process producer/consumer protocol, three ways:")
	fmt.Println()
	report("naive (no discipline)", false, false)
	report("with fsync (commit fix)", true, false)
	report("with close/open (session fix)", true, true)
	fmt.Println()
	fmt.Println("Reading the rows: the naive protocol needs strong semantics; adding the")
	fmt.Println("writer's fsync satisfies commit semantics; adding the close-before-open")
	fmt.Println("pair satisfies session (close-to-open) semantics as well.")
}
