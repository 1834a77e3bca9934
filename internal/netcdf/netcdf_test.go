package netcdf

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/payload"
	"repro/internal/pfs"
	"repro/internal/recorder"
	"repro/internal/recorder/v1test"
)

func run1(t *testing.T, body func(ctx *harness.Ctx) error) *harness.Result {
	t.Helper()
	res, err := harness.Run(harness.Config{Ranks: 1, Semantics: pfs.Strong},
		recorder.Meta{App: "nc-test", Library: "NetCDF"}, body)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRecordRoundTrip(t *testing.T) {
	run1(t, func(ctx *harness.Ctx) error {
		f, err := Create(ctx.OS, ctx.Tracer, "/dump.nc")
		if err != nil {
			return err
		}
		v, err := f.DefVar("coords", 48)
		if err != nil {
			return err
		}
		if err := f.EndDef(); err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			rec := make([]byte, 48)
			for j := range rec {
				rec[j] = byte(i)
			}
			if err := f.PutRecord(v, -1, payload.Bytes(rec)); err != nil {
				return err
			}
		}
		if f.NumRecs() != 3 {
			ctx.Failf("numrecs = %d", f.NumRecs())
		}
		got, err := f.GetRecord(v, 1)
		if err != nil {
			return err
		}
		if got[0] != 1 || got[47] != 1 {
			ctx.Failf("record 1 content wrong: %v", got[:4])
		}
		if err := f.Close(); err != nil {
			return err
		}
		return ctx.Failures()
	})
}

func TestNumrecsRewriteEachAppend(t *testing.T) {
	// The WAW-S mechanism: every appended record rewrites the header's
	// numrecs field at the same offset.
	res := run1(t, func(ctx *harness.Ctx) error {
		f, err := Create(ctx.OS, ctx.Tracer, "/d.nc")
		if err != nil {
			return err
		}
		v, _ := f.DefVar("x", 16)
		if err := f.EndDef(); err != nil {
			return err
		}
		for i := 0; i < 5; i++ {
			if err := f.PutRecord(v, -1, payload.Bytes(make([]byte, 16))); err != nil {
				return err
			}
		}
		return f.Close()
	})
	n := 0
	for _, r := range v1test.Filter(res.Trace, func(r *recorder.Record) bool {
		return r.Func == recorder.FuncPwrite && r.Arg(2) == numrecsOff && r.Arg(1) == numrecsLen
	}) {
		_ = r
		n++
	}
	if n != 5 {
		t.Fatalf("numrecs rewritten %d times, want 5", n)
	}
}

func TestModeEnforcement(t *testing.T) {
	run1(t, func(ctx *harness.Ctx) error {
		f, err := Create(ctx.OS, ctx.Tracer, "/m.nc")
		if err != nil {
			return err
		}
		v, _ := f.DefVar("x", 8)
		if err := f.PutRecord(v, -1, payload.Bytes(make([]byte, 8))); err == nil {
			ctx.Failf("PutRecord in define mode accepted")
		}
		if err := f.EndDef(); err != nil {
			return err
		}
		if _, err := f.DefVar("y", 8); err == nil {
			ctx.Failf("DefVar outside define mode accepted")
		}
		if err := f.EndDef(); err == nil {
			ctx.Failf("double EndDef accepted")
		}
		if err := f.PutRecord(v, -1, payload.Bytes(make([]byte, 4))); err == nil {
			ctx.Failf("wrong record size accepted")
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

func TestInterleavedVarLayout(t *testing.T) {
	run1(t, func(ctx *harness.Ctx) error {
		f, err := Create(ctx.OS, ctx.Tracer, "/i.nc")
		if err != nil {
			return err
		}
		a, _ := f.DefVar("a", 8)
		b, _ := f.DefVar("b", 8)
		if err := f.EndDef(); err != nil {
			return err
		}
		f.PutRecord(a, 0, payload.Bytes([]byte("AAAAAAAA")))
		f.PutRecord(b, 0, payload.Bytes([]byte("BBBBBBBB")))
		f.PutRecord(a, 1, payload.Bytes([]byte("aaaaaaaa")))
		f.PutRecord(b, 1, payload.Bytes([]byte("bbbbbbbb")))
		gotA1, _ := f.GetRecord(a, 1)
		gotB0, _ := f.GetRecord(b, 0)
		if string(gotA1) != "aaaaaaaa" || string(gotB0) != "BBBBBBBB" {
			ctx.Failf("layout broken: a1=%q b0=%q", gotA1, gotB0)
		}
		f.Sync()
		if err := f.Close(); err != nil {
			return err
		}
		return ctx.Failures()
	})
}

func TestOpenReadsHeader(t *testing.T) {
	res := run1(t, func(ctx *harness.Ctx) error {
		f, err := Create(ctx.OS, ctx.Tracer, "/h.nc")
		if err != nil {
			return err
		}
		v, _ := f.DefVar("x", 8)
		f.EndDef()
		f.PutRecord(v, -1, payload.Bytes(make([]byte, 8)))
		if err := f.Close(); err != nil {
			return err
		}
		f2, err := Open(ctx.OS, ctx.Tracer, "/h.nc")
		if err != nil {
			return err
		}
		return f2.Close()
	})
	found := false
	for range v1test.Filter(res.Trace, func(r *recorder.Record) bool {
		return r.Func == recorder.FuncNCOpen
	}) {
		found = true
	}
	if !found {
		t.Fatal("nc_open record missing")
	}
}
