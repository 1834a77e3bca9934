package harness

import (
	"testing"

	"repro/internal/payload"
	"repro/internal/recorder"
)

func TestCtxComputeAdvancesWithinBounds(t *testing.T) {
	res, err := Run(Config{Ranks: 2, Seed: 3}, recorder.Meta{App: "compute"},
		func(ctx *Ctx) error {
			before := ctx.MPI.Clock().Now()
			ctx.Compute(50, 150)
			d := ctx.MPI.Clock().Now() - before
			if d < 50_000 || d > 150_000 {
				ctx.Failf("Compute advanced %d ns, want [50000,150000]", d)
			}
			before = ctx.MPI.Clock().Now()
			ctx.Compute(10, 10) // degenerate range: exact
			if got := ctx.MPI.Clock().Now() - before; got != 10_000 {
				ctx.Failf("exact Compute advanced %d", got)
			}
			before = ctx.MPI.Clock().Now()
			ctx.Compute(20, 5) // max < min clamps to min
			if got := ctx.MPI.Clock().Now() - before; got != 20_000 {
				ctx.Failf("clamped Compute advanced %d", got)
			}
			if ctx.FailureCount() != len(ctx.failures) {
				ctx.Failf("FailureCount mismatch")
			}
			return ctx.Failures()
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err() != nil {
		t.Fatal(res.Err())
	}
}

func TestCtxComputeDesynchronizesRanks(t *testing.T) {
	res, err := Run(Config{Ranks: 8, Seed: 9}, recorder.Meta{App: "desync"},
		func(ctx *Ctx) error {
			ctx.Compute(10, 500)
			fd, err := ctx.OS.Open("/d", recorder.OCreat|recorder.OWronly, 0o644)
			if err != nil {
				return err
			}
			ctx.OS.Pwrite(fd, payload.Bytes(make([]byte, 8)), int64(ctx.Rank)*8)
			return ctx.OS.Close(fd)
		})
	if err != nil || res.Err() != nil {
		t.Fatal(err, res.Err())
	}
	// The pwrite start times must not be identical across ranks.
	times := map[uint64]bool{}
	for _, r := range res.Trace.Filter(func(r *recorder.Record) bool { return r.IsWriteOp() }) {
		times[r.TStart] = true
	}
	if len(times) < 4 {
		t.Fatalf("ranks not desynchronized: %d distinct write times", len(times))
	}
}
