package harness

import (
	"errors"
	"testing"

	"repro/internal/payload"
	"repro/internal/pfs"
	"repro/internal/recorder"
)

func TestRunProducesAlignedTrace(t *testing.T) {
	res, err := Run(Config{Ranks: 4, Semantics: pfs.Strong},
		recorder.Meta{App: "test", Library: "POSIX"},
		func(ctx *Ctx) error {
			fd, err := ctx.OS.Open("/out", recorder.OCreat|recorder.OWronly, 0o644)
			if err != nil {
				return err
			}
			if _, err := ctx.OS.Pwrite(fd, payload.Bytes(make([]byte, 64)), int64(ctx.Rank*64)); err != nil {
				return err
			}
			return ctx.OS.Close(fd)
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if !tr.Meta.Aligned {
		t.Fatal("trace not aligned")
	}
	if tr.Meta.Ranks != 4 || tr.Meta.App != "test" {
		t.Fatalf("meta = %+v", tr.Meta)
	}
	// Alignment barrier exit is time zero on every rank.
	for rank, rs := range tr.PerRank {
		if rs[0].Func != recorder.FuncMPIBarrier {
			t.Fatalf("rank %d first record is %v, not barrier", rank, rs[0].Func)
		}
		if rs[0].TEnd != 0 {
			t.Fatalf("rank %d barrier exit at %d, want 0 after alignment", rank, rs[0].TEnd)
		}
	}
	// The shared file has all 4 writes.
	info, _, err := res.FS.Stat("/out")
	if err != nil || info.Size != 256 {
		t.Fatalf("stat /out = %+v, %v", info, err)
	}
}

func TestRunDeterministic(t *testing.T) {
	body := func(ctx *Ctx) error {
		fd, _ := ctx.OS.Open("/f", recorder.OCreat|recorder.OWronly, 0o644)
		ctx.OS.Pwrite(fd, payload.Bytes(make([]byte, int(ctx.RNG.Intn(100))+1)), int64(ctx.Rank)*128)
		ctx.OS.Close(fd)
		ctx.MPI.Barrier()
		return nil
	}
	run := func() *recorder.Trace {
		res, err := Run(Config{Ranks: 3, Seed: 99}, recorder.Meta{App: "det"}, body)
		if err != nil {
			t.Fatal(err)
		}
		return res.Trace
	}
	a, b := run(), run()
	if a.NumRecords() != b.NumRecords() {
		t.Fatalf("record counts differ: %d vs %d", a.NumRecords(), b.NumRecords())
	}
	for rank := range a.PerRank {
		rsa, rsb := a.Records(rank), b.Records(rank)
		for i := range rsa {
			ra, rb := rsa[i], rsb[i]
			if ra.TStart != rb.TStart || ra.Func != rb.Func || ra.Arg(1) != rb.Arg(1) {
				t.Fatalf("rank %d record %d differs: %v vs %v", rank, i, ra, rb)
			}
		}
	}
}

func TestRunReportsRankErrors(t *testing.T) {
	res, err := Run(Config{Ranks: 2}, recorder.Meta{App: "err"}, func(ctx *Ctx) error {
		if ctx.Rank == 1 {
			return errors.New("boom")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errs) != 1 {
		t.Fatalf("want 1 rank error, got %v", res.Errs)
	}
	if res.Err() == nil {
		t.Fatal("Err() should surface the failure")
	}
}

func TestCtxFailureAccumulation(t *testing.T) {
	res, err := Run(Config{Ranks: 2}, recorder.Meta{App: "fail"}, func(ctx *Ctx) error {
		if ctx.Rank == 0 {
			ctx.Failf("mismatch at %d", 42)
			ctx.Failf("mismatch at %d", 43)
		}
		ctx.MPI.Barrier() // all ranks still reach the collective
		return ctx.Failures()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errs) != 1 {
		t.Fatalf("want 1 failing rank, got %v", res.Errs)
	}
}

func TestSkewIsBoundedAndRemoved(t *testing.T) {
	res, err := Run(Config{Ranks: 8, Seed: 7},
		recorder.Meta{App: "skew"},
		func(ctx *Ctx) error {
			ctx.MPI.Barrier()
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	// After alignment, the second barrier must end at the same stamp on all
	// ranks (constant skew is fully removed by barrier alignment).
	var want uint64
	for rank, rs := range res.Trace.PerRank {
		if len(rs) < 2 {
			t.Fatalf("rank %d missing records", rank)
		}
		end := rs[1].TEnd
		if rank == 0 {
			want = end
			continue
		}
		diff := int64(end) - int64(want)
		if diff < 0 {
			diff = -diff
		}
		if diff > 20_000 { // paper's residual bound
			t.Fatalf("rank %d second barrier end %d deviates %dns from rank 0", rank, end, diff)
		}
	}
}

func TestSharedFSAcrossRuns(t *testing.T) {
	fs := pfs.New(pfs.Options{Semantics: pfs.Strong})
	_, err := Run(Config{Ranks: 1, FS: fs}, recorder.Meta{App: "w"}, func(ctx *Ctx) error {
		fd, _ := ctx.OS.Open("/persist", recorder.OCreat|recorder.OWronly, 0o644)
		ctx.OS.Write(fd, payload.Bytes([]byte("kept")))
		return ctx.OS.Close(fd)
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Ranks: 1, FS: fs}, recorder.Meta{App: "r"}, func(ctx *Ctx) error {
		fd, err := ctx.OS.Open("/persist", recorder.ORdonly, 0)
		if err != nil {
			return err
		}
		got, _ := bytesOf(ctx.OS.Read(fd, 4))
		if string(got) != "kept" {
			ctx.Failf("read %q", got)
		}
		return ctx.Failures()
	})
	if err != nil || res.Err() != nil {
		t.Fatalf("second run failed: %v %v", err, res.Err())
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{Ranks: 0}, recorder.Meta{}, func(*Ctx) error { return nil }); err == nil {
		t.Fatal("zero ranks should be rejected")
	}
}

// bytesOf passes a read's results through with the payload's bytes.
func bytesOf(data payload.P, err error) ([]byte, error) { return data.Materialize(), err }
