package recorder

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestDecodeTruncatedStreams(t *testing.T) {
	// Encode a valid stream, then decode every strict prefix: all must fail
	// cleanly, never panic.
	recs := []Record{
		mkRecord(1, LayerPOSIX, FuncOpen, 10, 20, "/some/long/path/name", OCreat, 0o644, 3),
		mkRecord(1, LayerPOSIX, FuncPwrite, 30, 40, "/some/long/path/name", 3, 128, 0, 128),
		mkRecord(1, LayerPOSIX, FuncClose, 50, 55, "", 3),
	}
	var buf bytes.Buffer
	if err := EncodeRankStream(&buf, 1, recs); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		_, _, err := DecodeRankStream(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(full))
		}
	}
	// The full stream still decodes.
	if _, got, err := DecodeRankStream(bytes.NewReader(full)); err != nil || len(got) != 3 {
		t.Fatalf("full decode: %d recs, %v", len(got), err)
	}
}

func TestDecodeRejectsCorruptStringRef(t *testing.T) {
	// Hand-craft a stream whose record references string-table entry 99.
	var buf bytes.Buffer
	buf.WriteString(traceMagic)
	buf.Write([]byte{0}) // rank 0
	buf.Write([]byte{1}) // one record
	buf.Write([]byte{byte(LayerPOSIX)})
	buf.Write([]byte{byte(FuncOpen)})
	buf.Write([]byte{5})   // tstart
	buf.Write([]byte{1})   // duration
	buf.Write([]byte{101}) // string ref 101-2=99: out of table
	if _, _, err := DecodeRankStream(&buf); err == nil || !strings.Contains(err.Error(), "string ref") {
		t.Fatalf("corrupt string ref accepted: %v", err)
	}
}

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
	tr := &Trace{Meta: Meta{Ranks: 2}, PerRank: [][]Record{
		{mkRecord(0, LayerPOSIX, FuncReadv, 1, 2, "/f", 3, 10, 10)},
		{mkRecord(1, LayerPOSIX, FuncWritev, 1, 2, "/f", 3, 10, 10)},
	}}
	writes := tr.Filter(func(r *Record) bool { return r.IsWriteOp() })
	if len(writes) != 1 || writes[0].Func != FuncWritev {
		t.Fatalf("writev filter: %v", writes)
	}
	reads := tr.Filter(func(r *Record) bool { return r.IsDataOp() && !r.IsWriteOp() })
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

func TestDecodeTruncatedSalvagesPrefix(t *testing.T) {
	// Every truncation point must yield ErrTruncated plus the records that
	// fully decoded before the cut — never garbage, never a panic.
	recs := []Record{
		mkRecord(1, LayerPOSIX, FuncOpen, 10, 20, "/salvage/path", OCreat, 0o644, 3),
		mkRecord(1, LayerPOSIX, FuncPwrite, 30, 40, "/salvage/path", 3, 128, 0, 128),
		mkRecord(1, LayerPOSIX, FuncClose, 50, 55, "", 3),
	}
	var buf bytes.Buffer
	if err := EncodeRankStream(&buf, 1, recs); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	maxSalvaged := 0
	for cut := 0; cut < len(full); cut++ {
		_, got, err := DecodeRankStream(bytes.NewReader(full[:cut]))
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut %d/%d: err = %v, want ErrTruncated", cut, len(full), err)
		}
		if len(got) > len(recs) {
			t.Fatalf("cut %d: salvaged %d > encoded %d records", cut, len(got), len(recs))
		}
		for i, r := range got {
			if r.Func != recs[i].Func || r.Path != recs[i].Path || r.TStart != recs[i].TStart {
				t.Fatalf("cut %d: salvaged record %d = %v, want %v", cut, i, r, recs[i])
			}
		}
		if len(got) > maxSalvaged {
			maxSalvaged = len(got)
		}
	}
	if maxSalvaged != len(recs)-1 {
		t.Fatalf("max salvage across cuts = %d, want %d", maxSalvaged, len(recs)-1)
	}
}
