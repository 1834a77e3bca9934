package semfs

import (
	"errors"
	"testing"

	"repro/internal/recorder"
)

// runMalformed runs a 4-rank custom body whose rank 2 does bad after the
// alignment barrier, and requires the run to fail with a *TraceError for
// rank 2 and no result: a malformed emit never panics and never yields a
// partial trace.
func runMalformed(t *testing.T, bad func(ctx *Ctx) error) *recorder.TraceError {
	t.Helper()
	res, err := RunCustom("malformed", RunOptions{Ranks: 4, PPN: 2}, func(ctx *Ctx) error {
		if ctx.Rank == 2 {
			return bad(ctx)
		}
		return nil
	})
	var te *recorder.TraceError
	if res != nil || !errors.As(err, &te) {
		t.Fatalf("RunCustom = %v, %v; want no result and a *recorder.TraceError", res, err)
	}
	if te.Rank != 2 {
		t.Fatalf("error names rank %d, want 2: %v", te.Rank, err)
	}
	return te
}

// emitAt emits one POSIX record on ctx's rank at the rank's current stamp.
func emitAt(ctx *Ctx, r recorder.Record, args []int64) {
	now := ctx.MPI.Clock().Stamp()
	r.TStart += now
	r.TEnd += now
	ctx.Tracer.Emit(r, args)
}

// More than recorder.MaxArgs args fail assembly, not the later save.
func TestRunRejectsTooManyArgs(t *testing.T) {
	te := runMalformed(t, func(ctx *Ctx) error {
		emitAt(ctx, recorder.Record{Layer: recorder.LayerPOSIX, Func: recorder.FuncWrite, TEnd: 1},
			make([]int64, recorder.MaxArgs+1))
		return nil
	})
	if te.Record < 0 {
		t.Fatalf("error names no record: %v", te)
	}
}

func TestRunRejectsBackwardsRecord(t *testing.T) {
	te := runMalformed(t, func(ctx *Ctx) error {
		emitAt(ctx, recorder.Record{Layer: recorder.LayerPOSIX, Func: recorder.FuncWrite, TStart: 10, TEnd: 5}, nil)
		return nil
	})
	if te.Record < 0 {
		t.Fatalf("error names no record: %v", te)
	}
}

func TestRunRejectsInvalidFuncOrLayer(t *testing.T) {
	for name, r := range map[string]recorder.Record{
		"func":  {Layer: recorder.LayerPOSIX, Func: recorder.Func(recorder.NumFuncs())},
		"layer": {Layer: recorder.Layer(recorder.NumLayers()), Func: recorder.FuncWrite},
	} {
		t.Run(name, func(t *testing.T) {
			te := runMalformed(t, func(ctx *Ctx) error {
				emitAt(ctx, r, nil)
				return nil
			})
			if te.Record < 0 {
				t.Fatalf("error names no record: %v", te)
			}
		})
	}
}

// A rank whose log holds no MPI_Barrier cannot be aligned: here rank 2
// swaps its log for an empty one, dropping the alignment barrier, and
// fails, so the harness detaches it before the final barrier.
func TestRunRejectsRankWithoutBarrier(t *testing.T) {
	te := runMalformed(t, func(ctx *Ctx) error {
		*ctx.Tracer = *recorder.NewRankTracer(ctx.Rank)
		return errors.New("gone")
	})
	if te.Record != -1 {
		t.Fatalf("error names record %d, want the whole rank: %v", te.Record, te)
	}
}
