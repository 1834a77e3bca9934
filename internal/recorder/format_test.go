package recorder_test

// The v1 wire format's tests: the format (writer and decoder) is the
// test-support oracle in internal/recorder/v1test, which production code
// does not link. Its decoder keeps the recorder's truncation contract
// (ErrTruncated, TruncatedError) that the columnar cursor also follows.

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/recorder"
	"repro/internal/recorder/v1test"
)

func mkRecord(rank int, layer recorder.Layer, fn recorder.Func, ts, te uint64, path string, args ...int64) recorder.Record {
	return recorder.Record{Rank: int32(rank), Layer: layer, Func: fn, TStart: ts, TEnd: te, Path: path, Args: args}
}

// fuzzSeedStreams encodes a few representative rank streams so the fuzzer
// starts from valid wire format (the same bytes v1test.SaveDir writes) rather than
// discovering the magic by brute force.
func fuzzSeedStreams(f *testing.F) [][]byte {
	f.Helper()
	streams := [][]recorder.Record{
		nil, // empty stream
		{
			mkRecord(0, recorder.LayerPOSIX, recorder.FuncOpen, 1, 2, "/ckpt0001", int64(recorder.OCreat|recorder.OWronly), 0o644, 3),
			mkRecord(0, recorder.LayerPOSIX, recorder.FuncPwrite, 3, 9, "", 3, 4096, 0, 4096),
			mkRecord(0, recorder.LayerPOSIX, recorder.FuncFsync, 10, 30, "", 3),
			mkRecord(0, recorder.LayerPOSIX, recorder.FuncClose, 31, 32, "", 3),
		},
		{
			// Repeated paths exercise the string-table back references;
			// the HDF5 record exercises the layer byte and Path2.
			mkRecord(2, recorder.LayerHDF5, recorder.FuncH5Dwrite, 1, 90, "/data.h5"),
			mkRecord(2, recorder.LayerPOSIX, recorder.FuncStat, 2, 3, "/data.h5"),
			mkRecord(2, recorder.LayerPOSIX, recorder.FuncRename, 4, 5, "/data.h5"),
			mkRecord(2, recorder.LayerPOSIX, recorder.FuncWrite, 6, 7, "", 5, -1),
		},
	}
	var out [][]byte
	for i, rs := range streams {
		var buf bytes.Buffer
		if err := v1test.EncodeRankStream(&buf, i, rs); err != nil {
			f.Fatalf("encoding seed %d: %v", i, err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// FuzzLoadRecord is the decode-hardening gate: arbitrary bytes must
// either decode cleanly or return an error — never panic, never allocate
// absurdly from a forged header. Anything that does decode must survive an
// encode/decode round trip unchanged (the decoder accepts only canonical
// meaning, even if the wire encoding differs).
func FuzzLoadRecord(f *testing.F) {
	for _, seed := range fuzzSeedStreams(f) {
		f.Add(seed)
		// Truncations and corruptions of valid streams reach the deep
		// error paths (mid-record EOF, bad string refs) immediately.
		f.Add(seed[:len(seed)/2])
		if len(seed) > 10 {
			mut := bytes.Clone(seed)
			mut[9] ^= 0xff
			f.Add(mut)
		}
	}
	f.Add([]byte("SEMFSTR1"))                             // header only
	f.Add([]byte("SEMFSTR2\x00\x00"))                     // wrong magic
	f.Add([]byte("SEMFSTR1\x00\xff\xff\xff\xff\xff\x7f")) // huge count
	f.Add([]byte("SEMFSTR1\xff\xff\xff\xff\xff\xff\x01")) // huge rank
	f.Add([]byte("SEMFSTR1\x00\x01\x00\x05\xff\xff\x7f")) // nonsense record

	f.Fuzz(func(t *testing.T, data []byte) {
		rank, records, err := v1test.DecodeRankStream(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := v1test.EncodeRankStream(&buf, rank, records); err != nil {
			t.Fatalf("re-encoding decoded stream: %v", err)
		}
		rank2, records2, err := v1test.DecodeRankStream(&buf)
		if err != nil {
			t.Fatalf("decoding re-encoded stream: %v", err)
		}
		if rank2 != rank || len(records2) != len(records) {
			t.Fatalf("round trip changed shape: rank %d->%d, %d->%d records",
				rank, rank2, len(records), len(records2))
		}
		for i := range records {
			if !reflect.DeepEqual(records[i], records2[i]) {
				t.Fatalf("round trip changed record %d:\n%+v\n%+v", i, records[i], records2[i])
			}
		}
	})
}

func TestDecodeTruncatedStreams(t *testing.T) {
	// Encode a valid stream, then decode every strict prefix: all must fail
	// cleanly, never panic.
	recs := []recorder.Record{
		mkRecord(1, recorder.LayerPOSIX, recorder.FuncOpen, 10, 20, "/some/long/path/name", recorder.OCreat, 0o644, 3),
		mkRecord(1, recorder.LayerPOSIX, recorder.FuncPwrite, 30, 40, "/some/long/path/name", 3, 128, 0, 128),
		mkRecord(1, recorder.LayerPOSIX, recorder.FuncClose, 50, 55, "", 3),
	}
	var buf bytes.Buffer
	if err := v1test.EncodeRankStream(&buf, 1, recs); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		_, _, err := v1test.DecodeRankStream(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(full))
		}
	}
	// The full stream still decodes.
	if _, got, err := v1test.DecodeRankStream(bytes.NewReader(full)); err != nil || len(got) != 3 {
		t.Fatalf("full decode: %d recs, %v", len(got), err)
	}
}

func TestDecodeTruncatedSalvagesPrefix(t *testing.T) {
	// Every truncation point must yield recorder.ErrTruncated plus the records that
	// fully decoded before the cut — never garbage, never a panic.
	recs := []recorder.Record{
		mkRecord(1, recorder.LayerPOSIX, recorder.FuncOpen, 10, 20, "/salvage/path", recorder.OCreat, 0o644, 3),
		mkRecord(1, recorder.LayerPOSIX, recorder.FuncPwrite, 30, 40, "/salvage/path", 3, 128, 0, 128),
		mkRecord(1, recorder.LayerPOSIX, recorder.FuncClose, 50, 55, "", 3),
	}
	var buf bytes.Buffer
	if err := v1test.EncodeRankStream(&buf, 1, recs); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	maxSalvaged := 0
	for cut := 0; cut < len(full); cut++ {
		_, got, err := v1test.DecodeRankStream(bytes.NewReader(full[:cut]))
		if !errors.Is(err, recorder.ErrTruncated) {
			t.Fatalf("cut %d/%d: err = %v, want recorder.ErrTruncated", cut, len(full), err)
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

func TestStreamRoundTrip(t *testing.T) {
	recs := []recorder.Record{
		mkRecord(3, recorder.LayerPOSIX, recorder.FuncOpen, 100, 120, "/data/ckpt.h5", recorder.OCreat|recorder.OWronly, 0o644, 7),
		mkRecord(3, recorder.LayerPOSIX, recorder.FuncPwrite, 130, 150, "/data/ckpt.h5", 7, 4096, 0, 4096),
		mkRecord(3, recorder.LayerHDF5, recorder.FuncH5Fflush, 160, 200, "/data/ckpt.h5"),
		mkRecord(3, recorder.LayerPOSIX, recorder.FuncClose, 210, 215, "", 7),
		mkRecord(3, recorder.LayerMPI, recorder.FuncMPIBarrier, 220, 230, "", -1, 0, 4),
	}
	var buf bytes.Buffer
	if err := v1test.EncodeRankStream(&buf, 3, recs); err != nil {
		t.Fatal(err)
	}
	rank, got, err := v1test.DecodeRankStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rank != 3 {
		t.Fatalf("decoded rank %d, want 3", rank)
	}
	if !reflect.DeepEqual(normalize(recs), normalize(got)) {
		t.Fatalf("round trip mismatch:\n in: %v\nout: %v", recs, got)
	}
}

// normalize maps empty arg slices to nil for DeepEqual.
func normalize(rs []recorder.Record) []recorder.Record {
	out := make([]recorder.Record, len(rs))
	copy(out, rs)
	for i := range out {
		if len(out[i].Args) == 0 {
			out[i].Args = nil
		}
	}
	return out
}

func TestStreamRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	paths := []string{"", "/a", "/data/x.h5", "/scratch/run/out.nc"}
	gen := func() []recorder.Record {
		n := rng.Intn(50)
		recs := make([]recorder.Record, n)
		var tprev uint64
		for i := range recs {
			tprev += uint64(rng.Intn(1000))
			recs[i] = recorder.Record{
				Rank:   9,
				Layer:  recorder.Layer(rng.Intn(recorder.NumLayers())),
				Func:   recorder.Func(1 + rng.Intn(recorder.NumFuncs()-1)),
				TStart: tprev,
				TEnd:   tprev + uint64(rng.Intn(100)),
				Path:   paths[rng.Intn(len(paths))],
				Path2:  paths[rng.Intn(len(paths))],
			}
			na := rng.Intn(5)
			for j := 0; j < na; j++ {
				recs[i].Args = append(recs[i].Args, rng.Int63n(1<<40)-1<<39)
			}
		}
		return recs
	}
	for trial := 0; trial < 50; trial++ {
		recs := gen()
		var buf bytes.Buffer
		if err := v1test.EncodeRankStream(&buf, 9, recs); err != nil {
			t.Fatal(err)
		}
		_, got, err := v1test.DecodeRankStream(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normalize(recs), normalize(got)) {
			t.Fatalf("trial %d: round trip mismatch (n=%d)", trial, len(recs))
		}
	}
}

func TestEncodeRejectsBackwardsTime(t *testing.T) {
	var buf bytes.Buffer
	err := v1test.EncodeRankStream(&buf, 0, []recorder.Record{{Rank: 0, Func: recorder.FuncRead, TStart: 10, TEnd: 5}})
	if err == nil {
		t.Fatal("expected error for TEnd < TStart")
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	if _, _, err := v1test.DecodeRankStream(bytes.NewBufferString("NOTATRACE....")); err == nil {
		t.Fatal("expected error for bad magic")
	}
}

func TestDecodeRejectsCorruptStringRef(t *testing.T) {
	// Hand-craft a stream whose record references string-table entry 99.
	var buf bytes.Buffer
	buf.WriteString("SEMFSTR1")
	buf.Write([]byte{0}) // rank 0
	buf.Write([]byte{1}) // one record
	buf.Write([]byte{byte(recorder.LayerPOSIX)})
	buf.Write([]byte{byte(recorder.FuncOpen)})
	buf.Write([]byte{5})   // tstart
	buf.Write([]byte{1})   // duration
	buf.Write([]byte{101}) // string ref 101-2=99: out of table
	if _, _, err := v1test.DecodeRankStream(&buf); err == nil || !strings.Contains(err.Error(), "string ref") {
		t.Fatalf("corrupt string ref accepted: %v", err)
	}
}
