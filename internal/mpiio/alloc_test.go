package mpiio

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/harness"
	"repro/internal/payload"
)

// collectiveWriteAlloc returns the bytes the process allocates for one
// WriteAtAll of block bytes per rank across ranks ranks (four aggregators),
// excluding world and file set-up. Rank 0 samples the allocator between
// barriers, so every rank is parked in a barrier while it reads.
func collectiveWriteAlloc(t *testing.T, ranks int, block int64) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	run(t, ranks, 4, func(ctx *harness.Ctx) error {
		f, err := Open(ctx.MPI, ctx.OS, ctx.Tracer, "/alloc", ModeCreate|ModeWronly, Options{CBNodes: 4})
		if err != nil {
			return err
		}
		data := bytes.Repeat([]byte{byte(ctx.Rank)}, int(block))
		ctx.MPI.Barrier()
		if ctx.Rank == 0 {
			runtime.ReadMemStats(&before)
		}
		ctx.MPI.Barrier()
		if err := f.WriteAtAll(int64(ctx.Rank)*block, payload.Bytes(data)); err != nil {
			return err
		}
		ctx.MPI.Barrier()
		if ctx.Rank == 0 {
			runtime.ReadMemStats(&after)
		}
		ctx.MPI.Barrier()
		return f.Close()
	})
	return after.TotalAlloc - before.TotalAlloc
}

// TestCollectiveWriteAllocLinear gates the cost of a two-phase collective
// write on its total payload: quadrupling the ranks at a fixed per-rank
// block must grow the bytes allocated about fourfold (4.0 measured). A
// collective that copies every rank's block to every rank grows them
// toward sixteenfold: when Allgather copied its whole round for each rank,
// this test measured 14.0 and failed.
func TestCollectiveWriteAllocLinear(t *testing.T) {
	const block = 16 << 10
	small := collectiveWriteAlloc(t, 16, block)
	large := collectiveWriteAlloc(t, 64, block)
	ratio := float64(large) / float64(small)
	t.Logf("WriteAtAll of %d B/rank allocates %d B at 16 ranks, %d B at 64 ranks (ratio %.2f)", block, small, large, ratio)
	if ratio >= 8 {
		t.Fatalf("64/16-rank allocation ratio %.2f ≥ 8: a collective write costs more than O(ranks × block)", ratio)
	}
}
