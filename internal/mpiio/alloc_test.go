package mpiio

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/harness"
	"repro/internal/payload"
)

// collectiveWriteAlloc returns the bytes the process allocates for one
// WriteAtAll of each rank's payload(rank), at rank × its length, across
// ranks ranks (four aggregators, with opts' domain layout), excluding world,
// file and payload set-up. Rank 0 samples
// the allocator between barriers, so every rank is parked in a barrier
// while it reads.
func collectiveWriteAlloc(t *testing.T, ranks int, opts Options, payloadOf func(rank int) payload.P) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	run(t, ranks, 4, func(ctx *harness.Ctx) error {
		f, err := Open(ctx.MPI, ctx.OS, ctx.Tracer, "/alloc", ModeCreate|ModeWronly, opts)
		if err != nil {
			return err
		}
		data := payloadOf(ctx.Rank)
		ctx.MPI.Barrier()
		if ctx.Rank == 0 {
			runtime.ReadMemStats(&before)
		}
		ctx.MPI.Barrier()
		if err := f.WriteAtAll(int64(ctx.Rank)*data.Len(), data); err != nil {
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
	repeat := func(rank int) payload.P { return payload.Bytes(bytes.Repeat([]byte{byte(rank)}, block)) }
	small := collectiveWriteAlloc(t, 16, Options{CBNodes: 4}, repeat)
	large := collectiveWriteAlloc(t, 64, Options{CBNodes: 4}, repeat)
	ratio := float64(large) / float64(small)
	t.Logf("WriteAtAll of %d B/rank allocates %d B at 16 ranks, %d B at 64 ranks (ratio %.2f)", block, small, large, ratio)
	if ratio >= 8 {
		t.Fatalf("64/16-rank allocation ratio %.2f ≥ 8: a collective write costs more than O(ranks × block)", ratio)
	}
}

// TestCollectiveWriteKeepsFillReferences gates the exchange on payload
// values: a collective write of fill references in FLASH-fbs's layout
// (block-cyclic domains one rank's block wide, so every run is one piece)
// makes none of their bytes, so 16 ranks × 256 KiB allocate less than an
// eighth of the 4 MiB written. A WriteAtAll that materializes its payload
// allocates all 4 MiB.
func TestCollectiveWriteKeepsFillReferences(t *testing.T) {
	const ranks, block = 16, 256 << 10
	opts := Options{CBNodes: 4, CyclicDomains: true, CBBufferSize: block}
	got := collectiveWriteAlloc(t, ranks, opts, func(rank int) payload.P { return payload.Fill(uint64(rank), block) })
	t.Logf("WriteAtAll of %d × %d B fill references allocates %d B", ranks, block, got)
	if got >= ranks*block/8 {
		t.Fatalf("allocated %d B ≥ %d B: the collective made the references' bytes", got, ranks*block/8)
	}
}
