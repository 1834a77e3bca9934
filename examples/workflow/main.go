// Workflow: the emerging-workload case the paper defers to future work
// (§3.5) — a simulation pipelined to an analysis module through the file
// system. On an eventual-consistency PFS no commit or close/open discipline
// makes data promptly visible; the analysis must *poll* until propagation
// completes. This example runs a producer job and then a consumer job
// against the same simulated eventual-consistency file system and shows
// (a) an impatient consumer reads short/stale data, and (b) a polling
// consumer eventually reads every snapshot correctly — quantifying the
// waiting the propagation delay costs.
package main

import (
	"fmt"
	"log"

	"repro/internal/harness"
	"repro/internal/payload"
	"repro/internal/pfs"
	"repro/internal/recorder"
)

const (
	snapshots = 4
	snapBytes = 8 << 10
	delayNS   = 40_000_000 // 40 ms propagation delay
)

func pattern(i int, n int64) []byte {
	b := make([]byte, n)
	for j := range b {
		b[j] = byte(i*31 + j%97)
	}
	return b
}

func producer(fs *pfs.FileSystem) {
	res, err := harness.Run(harness.Config{Ranks: 8, PPN: 4, FS: fs},
		recorder.Meta{App: "sim-producer"}, func(ctx *harness.Ctx) error {
			for s := 0; s < snapshots; s++ {
				ctx.Compute(100, 300)
				fd, err := ctx.OS.Open(fmt.Sprintf("/pipe/snap.%03d.r%02d", s, ctx.Rank),
					recorder.OCreat|recorder.OWronly|recorder.OTrunc, 0o644)
				if err != nil {
					return err
				}
				if _, err := ctx.OS.Write(fd, payload.Bytes(pattern(s, snapBytes))); err != nil {
					return err
				}
				if err := ctx.OS.Close(fd); err != nil {
					return err
				}
			}
			return nil
		})
	if err != nil || res.Err() != nil {
		log.Fatal(err, res.Err())
	}
	fmt.Printf("producer: wrote %d snapshots x %d ranks (%d KiB total)\n",
		snapshots, 8, snapshots*8*snapBytes/1024)
}

// consume reads every snapshot; with polling it waits (advancing simulated
// time) until the file has propagated, without polling it takes whatever is
// visible immediately. Returns (shortReads, pollRounds).
func consume(fs *pfs.FileSystem, poll bool) (int, int) {
	short, rounds := 0, 0
	res, err := harness.Run(harness.Config{Ranks: 4, PPN: 4, FS: fs},
		recorder.Meta{App: "analysis-consumer"}, func(ctx *harness.Ctx) error {
			for s := ctx.Rank; s < snapshots*8; s += ctx.Size {
				path := fmt.Sprintf("/pipe/snap.%03d.r%02d", s/8, s%8)
				for {
					fd, err := ctx.OS.Open(path, recorder.ORdonly, 0)
					if err != nil {
						return err
					}
					got, err := ctx.OS.Read(fd, snapBytes)
					if cerr := ctx.OS.Close(fd); cerr != nil {
						return cerr
					}
					if err != nil {
						return err
					}
					if got.Len() == snapBytes {
						break
					}
					if !poll {
						if ctx.Rank == 0 {
							short++
						}
						break
					}
					// Eventual consistency: wait out the propagation delay
					// and retry (simulated time advances).
					if ctx.Rank == 0 {
						rounds++
					}
					ctx.Compute(5_000, 10_000) // 5-10 ms backoff
				}
			}
			return ctx.Failures()
		})
	if err != nil || res.Err() != nil {
		log.Fatal(err, res.Err())
	}
	return short, rounds
}

func main() {
	fmt.Println("Pipelined simulation→analysis on an eventual-consistency PFS")
	fmt.Printf("(propagation delay %d ms)\n\n", delayNS/1_000_000)

	fs := pfs.New(pfs.Options{Semantics: pfs.Eventual, EventualDelay: delayNS})
	producer(fs)

	short, _ := consume(fs, false)
	fmt.Printf("impatient consumer: %d of its snapshots read short/stale — close()\n", short)
	fmt.Println("  gave no visibility guarantee here, unlike commit/session semantics")

	fs2 := pfs.New(pfs.Options{Semantics: pfs.Eventual, EventualDelay: delayNS})
	producer(fs2)
	short2, rounds := consume(fs2, true)
	fmt.Printf("polling consumer:   %d short reads after %d backoff rounds — correct,\n", short2, rounds)
	fmt.Println("  at the price of waiting out the propagation delay per snapshot")

	fmt.Println("\nThis is why the paper scopes its study to the three strongest models:")
	fmt.Println("traditional applications assume a deterministic write→read relationship;")
	fmt.Println("eventual consistency pushes the synchronization burden into the workflow.")
}
