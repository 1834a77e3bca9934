package recorder

import (
	"strings"
	"testing"
)

func TestRecordAndLayerStrings(t *testing.T) {
	r := mkRecord(2, LayerHDF5, FuncH5Dwrite, 5, 9, "/f.h5", 0, 64)
	s := r.String()
	if !strings.Contains(s, "H5Dwrite") || !strings.Contains(s, "r2") {
		t.Fatalf("Record.String: %q", s)
	}
	if LayerPOSIX.String() != "POSIX" || LayerMPIIO.String() != "MPI-IO" || LayerApp.String() != "APP" {
		t.Fatal("layer names broken")
	}
	if got := Layer(200).String(); !strings.Contains(got, "layer#") {
		t.Fatalf("unknown layer: %q", got)
	}
	if got := Func(10000).String(); !strings.Contains(got, "func#") {
		t.Fatalf("unknown func: %q", got)
	}
	if itoa(-42) != "-42" || itoa(0) != "0" || itoa(10000) != "10000" {
		t.Fatal("itoa broken")
	}
}

func TestFilterAndPredicateEdges(t *testing.T) {
	tr, err := TraceOf(Meta{Ranks: 2}, tracersOf([][]Record{
		{mkRecord(0, LayerPOSIX, FuncReadv, 1, 2, "/f", 3, 10, 10)},
		{mkRecord(1, LayerPOSIX, FuncWritev, 1, 2, "/f", 3, 10, 10)},
	}))
	if err != nil {
		t.Fatal(err)
	}
	filter := func(keep func(*Record) bool) []Record {
		var out []Record
		for rank := range tr.PerRank {
			for _, r := range tr.Records(rank) {
				if keep(&r) {
					out = append(out, r)
				}
			}
		}
		return out
	}
	writes := filter(func(r *Record) bool { return r.IsWriteOp() })
	if len(writes) != 1 || writes[0].Func != FuncWritev {
		t.Fatalf("writev filter: %v", writes)
	}
	reads := filter(func(r *Record) bool { return r.IsDataOp() && !r.IsWriteOp() })
	if len(reads) != 1 || reads[0].Func != FuncReadv {
		t.Fatalf("readv filter: %v", reads)
	}
	cr := mkRecord(0, LayerPOSIX, FuncCreat, 0, 1, "/f", 0, 0, 4)
	if !cr.IsOpenOp() {
		t.Fatal("creat should be an open op")
	}
	tf := mkRecord(0, LayerPOSIX, FuncTmpfile, 0, 1, "", 0, 0, 5)
	if !tf.IsOpenOp() || !tf.IsMetadataOp() {
		t.Fatal("tmpfile classification")
	}
	for _, fn := range []Func{FuncMmap, FuncMsync, FuncMkfifo, FuncPipe, FuncMknod, FuncReadlink, FuncFaccessat} {
		m := mkRecord(0, LayerPOSIX, fn, 0, 1, "")
		if !m.IsMetadataOp() {
			t.Errorf("%v should be a metadata op", fn)
		}
	}
}
