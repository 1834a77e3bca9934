package semfs_test

import (
	"context"
	"fmt"
	"log"

	semfs "repro"

	"repro/internal/payload"
)

// Running an application emulator and asking the paper's question: what is
// the weakest PFS consistency model it can run on?
func ExampleRun() {
	res, err := semfs.Run("LAMMPS-ADIOS", semfs.RunOptions{Ranks: 16, PPN: 2, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	an, err := semfs.AnalyzeParallelCtx(context.Background(), res.Trace, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("weakest sufficient model:", an.Verdict.Weakest)
	fmt.Println("same-process WAW conflict:", an.Verdict.Session.WAWSame)
	fmt.Println("cross-process conflicts:", an.Verdict.Session.HasDifferentProcess())
	// Output:
	// weakest sufficient model: session
	// same-process WAW conflict: true
	// cross-process conflicts: false
}

// The FLASH result of Table 4: conflicts under session semantics that
// disappear under commit semantics.
func ExampleAnalyzeParallelCtx() {
	res, err := semfs.Run("FLASH-nofbs", semfs.RunOptions{Ranks: 16, PPN: 2, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	an, err := semfs.AnalyzeParallelCtx(context.Background(), res.Trace, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("session WAW-D:", an.Verdict.Session.WAWDiff)
	fmt.Println("commit WAW-D:", an.Verdict.Commit.WAWDiff)
	fmt.Println("weakest sufficient model:", an.Verdict.Weakest)
	// Output:
	// session WAW-D: true
	// commit WAW-D: false
	// weakest sufficient model: commit
}

// Tracing a custom I/O protocol with the same analysis.
func ExampleRunCustom() {
	res, err := semfs.RunCustom("two-phase", semfs.RunOptions{Ranks: 4, PPN: 2},
		func(ctx *semfs.Ctx) error {
			fd, err := ctx.OS.Open("/out", 0x40|0x1, 0o644) // O_CREAT|O_WRONLY
			if err != nil {
				return err
			}
			for seg := int64(0); seg < 2; seg++ {
				off := seg*4*1024 + int64(ctx.Rank)*1024
				if _, err := ctx.OS.Pwrite(fd, payload.Bytes(make([]byte, 1024)), off); err != nil {
					return err
				}
			}
			return ctx.OS.Close(fd)
		})
	if err != nil {
		log.Fatal(err)
	}
	an, err := semfs.AnalyzeParallelCtx(context.Background(), res.Trace, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("conflicts:", an.Verdict.Session.Any())
	fmt.Println("pattern:", an.Patterns[0].Key())
	// Output:
	// conflicts: false
	// pattern: N-1 strided
}
