package mpiio

import (
	"bytes"
	"testing"

	"repro/internal/harness"
	"repro/internal/payload"
	"repro/internal/recorder"
	"repro/internal/recorder/v1test"
)

func TestWriteAllAdvancesSharedLayout(t *testing.T) {
	run(t, 4, 2, func(ctx *harness.Ctx) error {
		f, err := Open(ctx.MPI, ctx.OS, ctx.Tracer, "/wa", ModeCreate|ModeRdwr, Options{})
		if err != nil {
			return err
		}
		// Each rank positions its pointer at its slot, then two collective
		// rounds append.
		f.SeekPtr(int64(ctx.Rank)*8, recorder.SeekSet)
		for round := 0; round < 2; round++ {
			data := bytes.Repeat([]byte{byte('a' + ctx.Rank)}, 8)
			if err := f.WriteAll(payload.Bytes(data)); err != nil {
				return err
			}
			f.SeekPtr(int64(4*8)-8, recorder.SeekCur) // skip others' slots
		}
		if err := f.Sync(); err != nil {
			return err
		}
		got, err := f.ReadAt(0, 64)
		if err != nil {
			return err
		}
		want := []byte("aaaaaaaabbbbbbbbccccccccddddddddaaaaaaaabbbbbbbbccccccccdddddddd")
		if !bytes.Equal(got, want) {
			ctx.Failf("WriteAll layout = %q", got)
		}
		if err := f.Close(); err != nil {
			return err
		}
		return ctx.Failures()
	})
}

func TestCyclicDomainsProduceInterleavedBlocks(t *testing.T) {
	const ranks, ppn = 8, 2 // 4 aggregators
	res := run(t, ranks, ppn, func(ctx *harness.Ctx) error {
		f, err := Open(ctx.MPI, ctx.OS, ctx.Tracer, "/cyc", ModeCreate|ModeWronly,
			Options{CyclicDomains: true, CBBufferSize: 64})
		if err != nil {
			return err
		}
		if err := f.WriteAtAll(int64(ctx.Rank)*64, payload.Bytes(bytes.Repeat([]byte{byte(ctx.Rank)}, 64))); err != nil {
			return err
		}
		return f.Close()
	})
	// Each aggregator must write several non-adjacent 64-byte blocks with a
	// constant stride of nAgg*64 = 256.
	perRank := map[int32][]int64{}
	for _, r := range v1test.Filter(res.Trace, func(r *recorder.Record) bool { return r.IsWriteOp() }) {
		perRank[r.Rank] = append(perRank[r.Rank], r.Arg(2))
	}
	if len(perRank) != 4 {
		t.Fatalf("writer count = %d, want 4 aggregators", len(perRank))
	}
	for rank, offs := range perRank {
		if len(offs) != 2 {
			t.Fatalf("aggregator %d wrote %d blocks, want 2 (cyclic)", rank, len(offs))
		}
		if offs[1]-offs[0] != 256 {
			t.Fatalf("aggregator %d stride = %d, want 256", rank, offs[1]-offs[0])
		}
	}
	// Content integrity across the cyclic reassembly.
	info, _, err := res.FS.Stat("/cyc")
	if err != nil || info.Size != 8*64 {
		t.Fatalf("file size %d, %v", info.Size, err)
	}
}

func TestCyclicDomainsDataIntegrity(t *testing.T) {
	run(t, 6, 3, func(ctx *harness.Ctx) error {
		f, err := Open(ctx.MPI, ctx.OS, ctx.Tracer, "/ci2", ModeCreate|ModeRdwr,
			Options{CyclicDomains: true, CBBufferSize: 32, CBNodes: 2})
		if err != nil {
			return err
		}
		data := bytes.Repeat([]byte{byte('0' + ctx.Rank)}, 48) // not block-aligned
		if err := f.WriteAtAll(int64(ctx.Rank)*48, payload.Bytes(data)); err != nil {
			return err
		}
		ctx.MPI.Barrier()
		got, err := f.ReadAt(int64(ctx.Rank)*48, 48)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			ctx.Failf("cyclic reassembly mismatch: %q", got[:8])
		}
		if err := f.Close(); err != nil {
			return err
		}
		return ctx.Failures()
	})
}
