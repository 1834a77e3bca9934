package adios

import (
	"fmt"
	"testing"

	"repro/internal/harness"
	"repro/internal/payload"
	"repro/internal/pfs"
	"repro/internal/recorder"
	"repro/internal/recorder/v1test"
)

func run(t *testing.T, n, ppn int, body func(ctx *harness.Ctx) error) *harness.Result {
	t.Helper()
	res, err := harness.Run(harness.Config{Ranks: n, PPN: ppn, Semantics: pfs.Strong},
		recorder.Meta{App: "adios-test", Library: "ADIOS"}, body)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSubstreamAggregation(t *testing.T) {
	const ranks, ppn = 8, 2 // 4 nodes → default 4 substreams
	res := run(t, ranks, ppn, func(ctx *harness.Ctx) error {
		w, err := OpenWriter(ctx.MPI, ctx.OS, ctx.Tracer, "/out")
		if err != nil {
			return err
		}
		if err := w.Put("atoms", payload.Bytes(make([]byte, 100))); err != nil {
			return err
		}
		if err := w.EndStep(); err != nil {
			return err
		}
		return w.Close()
	})
	// Each data.N file must hold its group's blocks (2 ranks × 100B).
	for s := 0; s < 4; s++ {
		info, _, err := res.FS.Stat(fmt.Sprintf("/out.bp/data.%d", s))
		if err != nil {
			t.Fatalf("data.%d: %v", s, err)
		}
		if info.Size != 200 {
			t.Fatalf("data.%d size %d, want 200", s, info.Size)
		}
	}
	// Only aggregator ranks write data files.
	for _, r := range v1test.Filter(res.Trace, func(r *recorder.Record) bool { return r.Func == recorder.FuncWrite }) {
		if r.Rank%2 != 0 {
			t.Fatalf("non-aggregator rank %d wrote", r.Rank)
		}
	}
}

func TestIndexByteOverwrittenPerStep(t *testing.T) {
	res := run(t, 4, 2, func(ctx *harness.Ctx) error {
		w, err := OpenWriter(ctx.MPI, ctx.OS, ctx.Tracer, "/lj")
		if err != nil {
			return err
		}
		for step := 0; step < 3; step++ {
			if err := w.Put("v", payload.Bytes(make([]byte, 64))); err != nil {
				return err
			}
			if err := w.EndStep(); err != nil {
				return err
			}
		}
		return w.Close()
	})
	// The status byte at idxStatusOff must be overwritten once per step by
	// rank 0 — the paper's single-byte WAW-S.
	n := 0
	for _, r := range v1test.Filter(res.Trace, func(r *recorder.Record) bool {
		return r.Func == recorder.FuncPwrite && r.Arg(2) == idxStatusOff && r.Arg(1) == 1
	}) {
		if r.Rank != 0 {
			t.Fatalf("status byte written by rank %d", r.Rank)
		}
		n++
	}
	if n != 3 {
		t.Fatalf("status byte overwritten %d times, want 3", n)
	}
}

func TestMetadataFilesOnRank0(t *testing.T) {
	res := run(t, 4, 4, func(ctx *harness.Ctx) error {
		w, err := OpenWriter(ctx.MPI, ctx.OS, ctx.Tracer, "/md")
		if err != nil {
			return err
		}
		w.Put("x", payload.Bytes(make([]byte, 10)))
		w.EndStep()
		return w.Close()
	})
	for _, path := range []string{"/md.bp/md.0", "/md.bp/md.idx"} {
		if _, _, err := res.FS.Stat(path); err != nil {
			t.Fatalf("metadata file %s: %v", path, err)
		}
	}
}

func TestSubstreamsCappedAtSize(t *testing.T) {
	run(t, 2, 1, func(ctx *harness.Ctx) error {
		w, err := OpenWriter(ctx.MPI, ctx.OS, ctx.Tracer, "/cap")
		if err != nil {
			return err
		}
		if w.substreams != 2 {
			ctx.Failf("substreams = %d, want 2", w.substreams)
		}
		if !w.Aggregator() {
			ctx.Failf("every rank aggregates when substreams == size")
		}
		w.Put("x", payload.Bytes(make([]byte, 8)))
		w.EndStep()
		if err := w.Close(); err != nil {
			return err
		}
		if err := w.Close(); err == nil {
			ctx.Failf("double close accepted")
		}
		return ctx.Failures()
	})
}

func TestADIOSLayerRecords(t *testing.T) {
	res := run(t, 2, 2, func(ctx *harness.Ctx) error {
		w, err := OpenWriter(ctx.MPI, ctx.OS, ctx.Tracer, "/rec")
		if err != nil {
			return err
		}
		w.Put("x", payload.Bytes(make([]byte, 8)))
		w.EndStep()
		return w.Close()
	})
	seen := map[recorder.Func]bool{}
	for _, r := range v1test.Filter(res.Trace, func(r *recorder.Record) bool { return r.Layer == recorder.LayerADIOS }) {
		seen[r.Func] = true
	}
	for _, fn := range []recorder.Func{
		recorder.FuncADIOSOpen, recorder.FuncADIOSPut,
		recorder.FuncADIOSEndStep, recorder.FuncADIOSClose,
	} {
		if !seen[fn] {
			t.Errorf("missing ADIOS record %v", fn)
		}
	}
}
