package recorder

import (
	"errors"
	"testing"
)

func mkRecord(rank int, layer Layer, fn Func, ts, te uint64, path string, args ...int64) Record {
	return Record{Rank: int32(rank), Layer: layer, Func: fn, TStart: ts, TEnd: te, Path: path, Args: args}
}

func TestFuncNames(t *testing.T) {
	cases := map[Func]string{
		FuncPwrite:            "pwrite",
		FuncH5Fflush:          "H5Fflush",
		FuncMPIFileWriteAtAll: "MPI_File_write_at_all",
		FuncGetcwd:            "getcwd",
		FuncNCPutVara:         "nc_put_vara",
	}
	for f, want := range cases {
		if got := f.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", f, got, want)
		}
		if got := FuncByName(want); got != f {
			t.Errorf("FuncByName(%q) = %v, want %v", want, got, f)
		}
	}
	if FuncByName("no_such_fn") != FuncUnknown {
		t.Error("FuncByName of unknown name should be FuncUnknown")
	}
	// Every defined func has a name.
	for f := Func(1); f < Func(NumFuncs()); f++ {
		if !f.valid() {
			t.Errorf("func %d not valid", f)
		}
		if f.String() == "" || f.String()[0] == 'f' && f.String() == "func#"+itoa(int(f)) {
			t.Errorf("func %d has no name", f)
		}
	}
}

func TestRecordPredicates(t *testing.T) {
	w := mkRecord(0, LayerPOSIX, FuncPwrite, 0, 1, "/f", 3, 100, 0, 100)
	if !w.IsDataOp() || !w.IsWriteOp() {
		t.Error("pwrite should be a data write op")
	}
	r := mkRecord(0, LayerPOSIX, FuncRead, 0, 1, "/f", 3, 100, 100)
	if !r.IsDataOp() || r.IsWriteOp() {
		t.Error("read should be data op, not write")
	}
	for _, fn := range []Func{FuncFsync, FuncFdatasync, FuncFflush, FuncClose, FuncFclose} {
		c := mkRecord(0, LayerPOSIX, fn, 0, 1, "", 3)
		if !c.IsCommitOp() {
			t.Errorf("%v should be a commit op", fn)
		}
	}
	wr := mkRecord(0, LayerPOSIX, FuncWrite, 0, 1, "/f")
	if wr.IsCommitOp() {
		t.Error("write is not a commit op")
	}
	// Layer gating: an HDF5-layer "write" is not a POSIX data op.
	h := mkRecord(0, LayerHDF5, FuncH5Dwrite, 0, 1, "/f.h5")
	if h.IsDataOp() {
		t.Error("HDF5-layer record must not be a POSIX data op")
	}
	m := mkRecord(0, LayerPOSIX, FuncGetcwd, 0, 1, "")
	if !m.IsMetadataOp() {
		t.Error("getcwd should be a metadata op")
	}
	op := mkRecord(0, LayerPOSIX, FuncOpen, 0, 1, "/f", ORdonly, 0, 3)
	if !op.IsOpenOp() {
		t.Error("open should be an open op")
	}
	cl := mkRecord(0, LayerPOSIX, FuncFclose, 0, 1, "", 3)
	if !cl.IsCloseOp() {
		t.Error("fclose should be a close op")
	}
}

func TestRecordArgAccessor(t *testing.T) {
	r := mkRecord(0, LayerPOSIX, FuncPwrite, 0, 1, "/f", 3, 100)
	if r.Arg(0) != 3 || r.Arg(1) != 100 {
		t.Error("Arg returned wrong values")
	}
	if r.Arg(5) != 0 || r.Arg(-1) != 0 {
		t.Error("out-of-range Arg should be 0")
	}
}

// tracersOf returns one tracer per rank holding perRank's records, as the
// ranks would have emitted them.
func tracersOf(perRank [][]Record) []*RankTracer {
	tracers := make([]*RankTracer, len(perRank))
	for r, rs := range perRank {
		tracers[r] = NewRankTracer(r)
		for _, rec := range rs {
			tracers[r].Emit(rec, rec.Args)
		}
	}
	return tracers
}

func TestAlign(t *testing.T) {
	// Rank 0 has skew +100 (all stamps shifted up), rank 1 has no skew.
	tr, err := NewTrace(Meta{App: "X", Ranks: 2}, tracersOf([][]Record{
		{mkRecord(0, LayerMPI, FuncMPIBarrier, 100, 150, ""), mkRecord(0, LayerPOSIX, FuncWrite, 200, 250, "/f", 3, 10, 10)},
		{mkRecord(1, LayerMPI, FuncMPIBarrier, 0, 50, ""), mkRecord(1, LayerPOSIX, FuncRead, 300, 350, "/f", 3, 10, 10)},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if tr.PerRank[0][0].TEnd != 0 || tr.PerRank[1][0].TEnd != 0 {
		t.Fatal("barrier exit should be time zero after alignment")
	}
	if got := tr.PerRank[0][1].TStart; got != 50 {
		t.Fatalf("rank 0 write TStart = %d, want 50", got)
	}
	if got := tr.PerRank[1][1].TStart; got != 250 {
		t.Fatalf("rank 1 read TStart = %d, want 250", got)
	}
	if got := tr.PerRank[0][0].TStart; got != 0 {
		t.Fatalf("rank 0 barrier TStart = %d, want 0 (clamped)", got)
	}
	if !tr.Meta.Aligned {
		t.Fatal("Aligned flag not set")
	}
}

func TestAlignErrorsWithoutBarrier(t *testing.T) {
	_, err := NewTrace(Meta{Ranks: 1}, tracersOf([][]Record{
		{mkRecord(0, LayerPOSIX, FuncRead, 1, 2, "/f")},
	}))
	var te *TraceError
	if !errors.As(err, &te) || te.Rank != 0 || te.Record != -1 {
		t.Fatalf("NewTrace without a barrier: %v, want a rank-0 *TraceError", err)
	}
}

// Assembly runs every structural check and fails with a *TraceError
// naming the record, never a trace.
func TestTraceValidate(t *testing.T) {
	barrier := mkRecord(0, LayerMPI, FuncMPIBarrier, 1, 2, "")
	good := []Record{barrier, mkRecord(0, LayerPOSIX, FuncOpen, 3, 4, "/f"), mkRecord(0, LayerPOSIX, FuncClose, 5, 6, "")}
	if _, err := NewTrace(Meta{Ranks: 1}, tracersOf([][]Record{good})); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	for name, bad := range map[string]Record{
		"backwards": mkRecord(0, LayerPOSIX, FuncClose, 9, 5, ""),
		"func":      mkRecord(0, LayerPOSIX, Func(NumFuncs()), 5, 6, ""),
		"layer":     mkRecord(0, Layer(NumLayers()), FuncClose, 5, 6, ""),
	} {
		tr, err := NewTrace(Meta{Ranks: 1}, tracersOf([][]Record{{barrier, bad}}))
		var te *TraceError
		if tr != nil || !errors.As(err, &te) || te.Record != 1 {
			t.Errorf("%s: NewTrace = %v, %v; want no trace and a *TraceError for record 1", name, tr, err)
		}
	}
	rt := NewRankTracer(0)
	rt.Emit(barrier, nil)
	rt.Emit(mkRecord(0, LayerPOSIX, FuncClose, 5, 6, ""), make([]int64, MaxArgs+1))
	var te *TraceError
	if _, err := NewTrace(Meta{Ranks: 1}, []*RankTracer{rt}); !errors.As(err, &te) || te.Record != 1 {
		t.Errorf("%d args: %v, want a *TraceError for record 1", MaxArgs+1, err)
	}
}

func TestMetaConfigName(t *testing.T) {
	cases := []struct {
		meta Meta
		want string
	}{
		{Meta{App: "FLASH", Library: "HDF5", Variant: "fbs"}, "FLASH-fbs"},
		{Meta{App: "LAMMPS", Library: "ADIOS"}, "LAMMPS-ADIOS"},
		{Meta{App: "LAMMPS", Library: "POSIX"}, "LAMMPS-POSIX"},
		{Meta{App: "GTC", Library: "POSIX"}, "GTC"},
		{Meta{App: "QMCPACK", Library: "HDF5"}, "QMCPACK-HDF5"},
		{Meta{App: "HACC-IO", Library: "MPI-IO"}, "HACC-IO-MPI-IO"},
	}
	for _, c := range cases {
		if got := c.meta.ConfigName(); got != c.want {
			t.Errorf("ConfigName(%+v) = %q, want %q", c.meta, got, c.want)
		}
	}
}

func TestRankTracer(t *testing.T) {
	rt := NewRankTracer(0)
	rt.Emit(Record{Rank: 99, Layer: LayerPOSIX, Func: FuncOpen, TStart: 1, TEnd: 2, Path: "/f"}, nil)
	if rt.count() != 1 {
		t.Fatal("Emit did not append")
	}
	tr, err := TraceOf(Meta{}, []*RankTracer{rt})
	if err != nil {
		t.Fatal(err)
	}
	if r := tr.Records(0)[0]; r.Rank != 0 {
		t.Fatal("Emit must force the tracer's rank")
	}
}
