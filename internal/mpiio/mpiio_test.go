package mpiio

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/payload"
	"repro/internal/pfs"
	"repro/internal/recorder"
	"repro/internal/recorder/v1test"
)

// run executes body on n ranks with a strong-semantics FS and returns the
// result.
func run(t *testing.T, n, ppn int, body func(ctx *harness.Ctx) error) *harness.Result {
	t.Helper()
	res, err := harness.Run(harness.Config{Ranks: n, PPN: ppn, Semantics: pfs.Strong},
		recorder.Meta{App: "mpiio-test", Library: "MPI-IO"}, body)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestIndependentWriteAtRoundTrip(t *testing.T) {
	res := run(t, 4, 2, func(ctx *harness.Ctx) error {
		f, err := Open(ctx.MPI, ctx.OS, ctx.Tracer, "/data", ModeCreate|ModeRdwr, Options{})
		if err != nil {
			return err
		}
		data := bytes.Repeat([]byte{byte('A' + ctx.Rank)}, 32)
		if err := f.WriteAt(int64(ctx.Rank)*32, payload.Bytes(data)); err != nil {
			return err
		}
		ctx.MPI.Barrier()
		got, err := bytesOf(f.ReadAt(int64(ctx.Rank)*32, 32))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			ctx.Failf("read back %q", got)
		}
		if err := f.Close(); err != nil {
			return err
		}
		return ctx.Failures()
	})
	info, _, err := res.FS.Stat("/data")
	if err != nil || info.Size != 128 {
		t.Fatalf("file size = %d, %v", info.Size, err)
	}
}

func TestCollectiveWriteOnlyAggregatorsTouchFS(t *testing.T) {
	const ranks, ppn = 8, 2 // 4 nodes → 4 default aggregators
	res := run(t, ranks, ppn, func(ctx *harness.Ctx) error {
		f, err := Open(ctx.MPI, ctx.OS, ctx.Tracer, "/coll", ModeCreate|ModeWronly, Options{})
		if err != nil {
			return err
		}
		data := bytes.Repeat([]byte{byte('a' + ctx.Rank)}, 100)
		if err := f.WriteAtAll(int64(ctx.Rank)*100, payload.Bytes(data)); err != nil {
			return err
		}
		return f.Close()
	})
	// Count which ranks issued POSIX writes.
	writers := map[int32]bool{}
	for _, rec := range v1test.Filter(res.Trace, func(r *recorder.Record) bool { return r.IsWriteOp() }) {
		writers[rec.Rank] = true
	}
	if len(writers) != 4 {
		t.Fatalf("expected 4 aggregator writers, got %d: %v", len(writers), writers)
	}
	for w := range writers {
		if w%2 != 0 { // node leaders are even ranks with ppn=2
			t.Fatalf("non-leader rank %d wrote", w)
		}
	}
	// All data must have landed correctly.
	info, _, err := res.FS.Stat("/coll")
	if err != nil || info.Size != 800 {
		t.Fatalf("size %d, %v", info.Size, err)
	}
}

func TestCollectiveWriteDataIntegrity(t *testing.T) {
	res := run(t, 6, 3, func(ctx *harness.Ctx) error {
		f, err := Open(ctx.MPI, ctx.OS, ctx.Tracer, "/ci", ModeCreate|ModeRdwr, Options{CBNodes: 2})
		if err != nil {
			return err
		}
		data := bytes.Repeat([]byte{byte('0' + ctx.Rank)}, 10)
		if err := f.WriteAtAll(int64(ctx.Rank)*10, payload.Bytes(data)); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		got, err := bytesOf(f.ReadAt(0, 60))
		if err != nil {
			return err
		}
		want := []byte("000000000011111111112222222222333333333344444444445555555555")[:60]
		if !bytes.Equal(got, want) {
			ctx.Failf("file content %q, want %q", got, want)
		}
		if err := f.Close(); err != nil {
			return err
		}
		return ctx.Failures()
	})
	_ = res
}

func TestCollectiveWriteWithGaps(t *testing.T) {
	// Ranks 1 and 3 contribute nothing; data is non-contiguous.
	run(t, 4, 2, func(ctx *harness.Ctx) error {
		f, err := Open(ctx.MPI, ctx.OS, ctx.Tracer, "/gaps", ModeCreate|ModeRdwr, Options{CBNodes: 2})
		if err != nil {
			return err
		}
		var data []byte
		if ctx.Rank%2 == 0 {
			data = bytes.Repeat([]byte{byte('A' + ctx.Rank)}, 16)
		}
		if err := f.WriteAtAll(int64(ctx.Rank)*100, payload.Bytes(data)); err != nil {
			return err
		}
		ctx.MPI.Barrier()
		got, err := bytesOf(f.ReadAt(200, 16))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{'C'}, 16)) {
			ctx.Failf("rank2 block = %q", got)
		}
		if err := f.Close(); err != nil {
			return err
		}
		return ctx.Failures()
	})
}

// TestCollectiveReadAtAll runs collective reads whose requests are
// disjoint, overlap, differ in length, are empty on some or all ranks, or
// run past EOF, across one to three aggregators, and checks each rank's
// result against an independent read of the same range (zero-filled past
// EOF).
func TestCollectiveReadAtAll(t *testing.T) {
	const ranks, ppn, size = 6, 2, 500 // 3 nodes → up to 3 aggregators
	cases := []struct {
		name string
		req  func(rank int) (off, n int64)
	}{
		{"disjoint", func(r int) (int64, int64) { return int64(r) * 16, 16 }},
		{"overlapping", func(r int) (int64, int64) { return int64(r) * 5, 40 }},
		{"same-range", func(int) (int64, int64) { return 100, 77 }},
		{"uneven", func(r int) (int64, int64) { return int64(r*r) * 11, int64(r)*13 + 1 }},
		{"some-empty", func(r int) (int64, int64) {
			if r%2 == 1 {
				return int64(r) * 50, 0
			}
			return int64(r) * 31, 45
		}},
		{"all-empty", func(r int) (int64, int64) { return int64(r), 0 }},
		{"one-rank", func(r int) (int64, int64) {
			if r != 4 {
				return 0, 0
			}
			return 123, 200
		}},
		{"past-eof", func(r int) (int64, int64) { return size - 30 + int64(r)*10, 50 }},
	}
	content := make([]byte, size)
	for i := range content {
		content[i] = byte(i*7 + i/13)
	}
	for cb := 1; cb <= 3; cb++ {
		run(t, ranks, ppn, func(ctx *harness.Ctx) error {
			f, err := Open(ctx.MPI, ctx.OS, ctx.Tracer, "/crm", ModeCreate|ModeRdwr, Options{CBNodes: cb})
			if err != nil {
				return err
			}
			if len(f.Aggregators()) != cb {
				ctx.Failf("%d aggregators, want %d", len(f.Aggregators()), cb)
			}
			if ctx.Rank == 0 {
				if err := f.WriteAt(0, payload.Bytes(content)); err != nil {
					return err
				}
			}
			ctx.MPI.Barrier()
			for _, tc := range cases {
				off, n := tc.req(ctx.Rank)
				got, err := bytesOf(f.ReadAtAll(off, n))
				if err != nil {
					return err
				}
				ref, err := bytesOf(f.ReadAt(off, n))
				if err != nil {
					return err
				}
				want := make([]byte, n)
				copy(want, ref)
				if !bytes.Equal(got, want) {
					ctx.Failf("cb_nodes=%d %s: rank %d read [%d,+%d) = %v, want %v", cb, tc.name, ctx.Rank, off, n, got, want)
				}
			}
			if err := f.Close(); err != nil {
				return err
			}
			return ctx.Failures()
		})
	}
}

func TestSetViewDisplacement(t *testing.T) {
	res := run(t, 2, 2, func(ctx *harness.Ctx) error {
		f, err := Open(ctx.MPI, ctx.OS, ctx.Tracer, "/view", ModeCreate|ModeWronly, Options{})
		if err != nil {
			return err
		}
		f.SetView(1000, 0, 0)
		if err := f.WriteAt(int64(ctx.Rank)*8, payload.Bytes(bytes.Repeat([]byte{'v'}, 8))); err != nil {
			return err
		}
		return f.Close()
	})
	info, _, err := res.FS.Stat("/view")
	if err != nil || info.Size != 1016 {
		t.Fatalf("size with displacement = %d, %v", info.Size, err)
	}
}

func TestIndividualPointerOps(t *testing.T) {
	run(t, 1, 1, func(ctx *harness.Ctx) error {
		f, err := Open(ctx.MPI, ctx.OS, ctx.Tracer, "/ptr", ModeCreate|ModeRdwr, Options{})
		if err != nil {
			return err
		}
		if err := f.Write(payload.Bytes([]byte("abcd"))); err != nil {
			return err
		}
		if err := f.Write(payload.Bytes([]byte("efgh"))); err != nil {
			return err
		}
		f.SeekPtr(0, recorder.SeekSet)
		got, err := bytesOf(f.Read(8))
		if err != nil {
			return err
		}
		if string(got) != "abcdefgh" {
			ctx.Failf("pointer I/O got %q", got)
		}
		if err := f.Close(); err != nil {
			return err
		}
		return ctx.Failures()
	})
}

func TestMPIIOLayerRecordsEmitted(t *testing.T) {
	res := run(t, 2, 2, func(ctx *harness.Ctx) error {
		f, err := Open(ctx.MPI, ctx.OS, ctx.Tracer, "/rec", ModeCreate|ModeWronly, Options{})
		if err != nil {
			return err
		}
		f.WriteAtAll(int64(ctx.Rank)*4, payload.Bytes([]byte("data")))
		f.Sync()
		f.SetAtomicity(false)
		f.SetSize(100)
		return f.Close()
	})
	seen := map[recorder.Func]int{}
	for _, r := range v1test.Filter(res.Trace, func(r *recorder.Record) bool { return r.Layer == recorder.LayerMPIIO }) {
		seen[r.Func]++
	}
	for _, fn := range []recorder.Func{
		recorder.FuncMPIFileOpen, recorder.FuncMPIFileWriteAtAll,
		recorder.FuncMPIFileSync, recorder.FuncMPIFileSetAtomicity,
		recorder.FuncMPIFileSetSize, recorder.FuncMPIFileClose,
	} {
		if seen[fn] == 0 {
			t.Errorf("no MPI-IO record for %v (have %v)", fn, seen)
		}
	}
}

func TestCBNodesCapsAggregators(t *testing.T) {
	run(t, 8, 2, func(ctx *harness.Ctx) error {
		f, err := Open(ctx.MPI, ctx.OS, ctx.Tracer, "/agg", ModeCreate|ModeWronly, Options{CBNodes: 2})
		if err != nil {
			return err
		}
		aggs := f.Aggregators()
		if len(aggs) != 2 || aggs[0] != 0 || aggs[1] != 2 {
			ctx.Failf("aggregators = %v, want [0 2]", aggs)
		}
		if err := f.Close(); err != nil {
			return err
		}
		return ctx.Failures()
	})
}

func TestDoubleCloseFails(t *testing.T) {
	run(t, 1, 1, func(ctx *harness.Ctx) error {
		f, err := Open(ctx.MPI, ctx.OS, ctx.Tracer, "/dc", ModeCreate|ModeWronly, Options{})
		if err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if err := f.Close(); err == nil {
			ctx.Failf("double close accepted")
		}
		return ctx.Failures()
	})
}

// TestCollectivesSkipDepartedRank: a rank that leaves the job after Open
// deposits no request in the survivors' WriteAtAll and ReadAtAll, and the
// survivors must complete both without it. With the default aggregators
// the departed rank owns the file domain [225, 300), which nobody writes or
// reads: rank 2, whose bytes are [200, 300), gets errDomainLost from both
// calls, and the ranks whose bytes live aggregators own read them back.
// With two aggregators every survivor does.
func TestCollectivesSkipDepartedRank(t *testing.T) {
	const ranks, ppn, gone, size = 4, 1, 3, 100
	errGone := errors.New("left the job")
	for _, tc := range []struct {
		name string
		opts Options
		lost func(rank int) bool
	}{
		{"departed-aggregator", Options{}, func(r int) bool { return r == 2 }},
		{"departed-non-aggregator", Options{CBNodes: 2}, func(int) bool { return false }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := harness.Run(harness.Config{Ranks: ranks, PPN: ppn, Semantics: pfs.Strong},
				recorder.Meta{App: "mpiio-test", Library: "MPI-IO"}, func(ctx *harness.Ctx) error {
					f, err := Open(ctx.MPI, ctx.OS, ctx.Tracer, "/departed", ModeCreate|ModeRdwr, tc.opts)
					if err != nil {
						return err
					}
					if ctx.Rank == gone {
						ctx.MPI.Detach()
						return errGone
					}
					// check accepts errDomainLost naming [225, 300) where the
					// case loses rank 2's bytes, and no error elsewhere.
					check := func(call string, err error) error {
						if !tc.lost(ctx.Rank) {
							return err
						}
						if !errors.Is(err, errDomainLost) || !strings.Contains(err.Error(), "[225, 300)") {
							ctx.Failf("rank %d %s: %v, want errDomainLost for [225, 300)", ctx.Rank, call, err)
						}
						return nil
					}
					data := bytes.Repeat([]byte{byte('a' + ctx.Rank)}, size)
					off := int64(ctx.Rank) * size
					if err := check("WriteAtAll", f.WriteAtAll(off, payload.Bytes(data))); err != nil {
						return err
					}
					got, err := bytesOf(f.ReadAtAll(off, size))
					if err := check("ReadAtAll", err); err != nil {
						return err
					}
					if !tc.lost(ctx.Rank) && !bytes.Equal(got, data) {
						ctx.Failf("rank %d read back %q, want %q", ctx.Rank, got, data)
					}
					if err := f.Close(); err != nil {
						return err
					}
					return ctx.Failures()
				})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Errs) != 1 || !errors.Is(res.Errs[0], errGone) {
				t.Fatalf("rank errors %v, want only rank %d's departure", res.Errs, gone)
			}
		})
	}
}

// bytesOf passes a read's results through with the payload's bytes.
func bytesOf(data payload.P, err error) ([]byte, error) { return data.Materialize(), err }
