package apps

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/harness"
	"repro/internal/pfs"
	"repro/internal/recorder"
	"repro/internal/recorder/colfmt"
)

// The assembly oracle: for every registry configuration, the rank streams
// trace assembly writes (the pointer-free log sorted, aligned and
// renumbered by recorder.NewTrace, then written by Trace.WriteStream) are
// byte for byte what the record pipeline makes of the same emissions:
// every rank's records in emission order, stable-sorted by sort.SliceStable
// with the assembly comparator, aligned to the first barrier with the clamp
// at zero, and encoded by colfmt.EncodeStream.
//
// The comparator is not a strict weak order (see recorder's cmpEntry), so
// the bytes depend on the stable sort's algorithm: an insertion sort with
// the same comparator reorders FLASH-fbs and VPIC-IO-HDF5 at 16 ranks, PPN
// 4, seed 5 with Verify.
func TestAssemblyMatchesRecordPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every configuration eight times")
	}
	for _, cfg := range Registry() {
		for _, seed := range []uint64{3, 5} {
			for _, verify := range []bool{false, true} {
				opts := Options{Ranks: 16, PPN: 4, Seed: seed, Params: Params{Verify: verify}}
				label := fmt.Sprintf("%s/seed=%d/verify=%v", cfg.Name(), seed, verify)
				res, err := Execute(cfg, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want := emitted(t, label, cfg, opts)
				for _, rs := range want {
					sortRecords(rs)
				}
				alignRecords(want)
				for rank, rs := range want {
					var got, exp bytes.Buffer
					if err := res.Trace.WriteStream(&got, rank); err != nil {
						t.Fatalf("%s rank %d: %v", label, rank, err)
					}
					if err := colfmt.EncodeStream(&exp, rank, rs, colfmt.EncodeOptions{}); err != nil {
						t.Fatalf("%s rank %d: %v", label, rank, err)
					}
					if !bytes.Equal(got.Bytes(), exp.Bytes()) {
						t.Fatalf("%s rank %d: assembled stream (%d bytes) differs from the record pipeline's (%d bytes)",
							label, rank, got.Len(), exp.Len())
					}
				}
			}
		}
	}
}

// emitted reruns Execute's traced run and returns every rank's records in
// emission order: the body runs the configuration, then the final barrier
// the harness would add, and then takes its tracer's records (written in
// emission order and decoded) before the harness's own barrier lands in
// the emptied tracer.
func emitted(t *testing.T, label string, cfg *Config, opts Options) [][]recorder.Record {
	t.Helper()
	p := opts.Params.withDefaults()
	hc := harness.Config{Ranks: opts.Ranks, PPN: opts.PPN, Seed: opts.Seed, Semantics: opts.Semantics}
	if cfg.Setup != nil {
		hc.FS = pfs.New(pfs.Options{Semantics: opts.Semantics})
		res, err := harness.Run(hc, recorder.Meta{App: cfg.App, Variant: "setup"},
			func(ctx *harness.Ctx) error { return cfg.Setup(ctx, p) })
		if err != nil || res.Err() != nil {
			t.Fatalf("%s: setup: %v %v", label, err, res.Err())
		}
	}
	out := make([][]recorder.Record, opts.Ranks)
	res, err := harness.Run(hc, cfg.Meta(p), func(ctx *harness.Ctx) error {
		if err := cfg.Run(ctx, p); err != nil {
			return err
		}
		ctx.MPI.Barrier()
		var buf bytes.Buffer
		if err := ctx.Tracer.WriteStream(&buf, 0); err != nil {
			return err
		}
		r, err := colfmt.NewReader(buf.Bytes())
		if err != nil {
			return err
		}
		c := r.Cursor()
		for c.Next() {
			rec := *c.Record()
			rec.Args = slices.Clone(rec.Args)
			out[ctx.Rank] = append(out[ctx.Rank], rec)
		}
		return c.Err()
	})
	if err != nil || res.Err() != nil {
		t.Fatalf("%s: emission run: %v %v", label, err, res.Err())
	}
	return out
}

// sortRecords stable-sorts a rank's records into entry order: by TStart,
// equal stamps between I/O records longer first, MPI records in emission
// order.
func sortRecords(rs []recorder.Record) {
	sort.SliceStable(rs, func(a, b int) bool {
		if rs[a].TStart != rs[b].TStart {
			return rs[a].TStart < rs[b].TStart
		}
		if rs[a].Layer == recorder.LayerMPI || rs[b].Layer == recorder.LayerMPI {
			return false
		}
		return rs[a].TEnd > rs[b].TEnd
	})
}

// alignRecords shifts every sorted rank so that its first barrier's exit is
// time zero, clamping earlier stamps at zero.
func alignRecords(perRank [][]recorder.Record) {
	sub0 := func(a, b uint64) uint64 {
		if a < b {
			return 0
		}
		return a - b
	}
	for _, rs := range perRank {
		var off uint64
		for i := range rs {
			if rs[i].Layer == recorder.LayerMPI && rs[i].Func == recorder.FuncMPIBarrier {
				off = rs[i].TEnd
				break
			}
		}
		for i := range rs {
			rs[i].TStart, rs[i].TEnd = sub0(rs[i].TStart, off), sub0(rs[i].TEnd, off)
		}
	}
}
