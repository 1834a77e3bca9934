package colfmt

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/recorder"
	"repro/internal/recorder/colwire"
)

// FuzzDecodeColumnar is the columnar decode-hardening gate, mirroring
// recorder.FuzzLoadRecord: arbitrary byte mutations of valid streams must
// never panic or read outside the input slice, and must either decode
// cleanly (surviving an encode/decode round trip) or return an error —
// a recorder.TruncatedError for missing bytes, a *corruptError for damage —
// while preserving the valid block prefix. The lenient walk additionally
// must never yield more records than the header declared.
func FuzzDecodeColumnar(f *testing.F) {
	for i, recs := range [][]recorder.Record{
		nil,
		genStream(0, 5, 1),
		genStream(2, 100, 2),
	} {
		for _, per := range []int{0, 7} {
			var buf bytes.Buffer
			if err := EncodeStream(&buf, i, recs, EncodeOptions{BlockRecords: per}); err != nil {
				f.Fatalf("encoding seed: %v", err)
			}
			seed := buf.Bytes()
			f.Add(seed)
			f.Add(seed[:len(seed)/2])                    // torn tail
			f.Add(seed[:len(seed)-colwire.TrailerLen/2]) // torn trailer
			if len(seed) > 40 {
				mut := bytes.Clone(seed)
				mut[30] ^= 0xff // likely a block payload byte
				f.Add(mut)
				mut2 := bytes.Clone(seed)
				mut2[len(colwire.Magic)+3] ^= 0xff // frame header byte
				f.Add(mut2)
			}
		}
	}
	f.Add([]byte(colwire.Magic))                                  // header only
	f.Add([]byte("SEMFSCOL2\x00\x00"))                            // wrong magic
	f.Add([]byte(colwire.Magic + "\x00\xff\xff\xff\xff\x7f"))     // huge count
	f.Add([]byte(colwire.Magic + "\xff\xff\xff\xff\xff\x01"))     // huge rank
	f.Add([]byte(colwire.Magic + "\x00\x08\x01\xff\xff\xff\xff")) // nonsense frame

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(data)
		if err != nil {
			return
		}
		recs, merr := r.materialize(r.Cursor())
		if uint64(len(recs)) > uint64(r.declaredRecords()) {
			t.Fatalf("decoded %d records, header declared %d", len(recs), r.declaredRecords())
		}
		lr, lerr := NewReader(data)
		if lerr != nil {
			t.Fatalf("second open disagrees: %v", lerr)
		}
		lc := lr.lenientCursor()
		sal, _ := lr.materialize(lc)
		stats := lc.decodeStats()
		if len(sal) > r.declaredRecords() || stats.Records != len(sal) {
			t.Fatalf("lenient decoded %d (stats %+v), declared %d", len(sal), stats, r.declaredRecords())
		}
		// The strict walk's records are a prefix of some valid decode; the
		// lenient walk must preserve at least that prefix when nothing was
		// skipped mid-stream.
		if stats.Skipped == 0 && len(sal) < len(recs) {
			t.Fatalf("lenient (%d) kept less than strict (%d) with no skips", len(sal), len(recs))
		}
		if merr != nil {
			var te *recorder.TruncatedError
			var ce *corruptError
			if !errors.As(merr, &te) && !errors.As(merr, &ce) {
				t.Fatalf("strict error is neither truncation nor corruption: %v", merr)
			}
			return
		}
		// Clean decode: must round-trip unchanged.
		var buf bytes.Buffer
		if err := EncodeStream(&buf, r.rank, recs, EncodeOptions{}); err != nil {
			t.Fatalf("re-encoding decoded stream: %v", err)
		}
		r2, err := NewReader(buf.Bytes())
		if err != nil {
			t.Fatalf("reopening re-encoded stream: %v", err)
		}
		recs2, err := r2.materialize(r2.Cursor())
		if err != nil {
			t.Fatalf("decoding re-encoded stream: %v", err)
		}
		if r2.rank != r.rank || len(recs2) != len(recs) {
			t.Fatalf("round trip changed shape: rank %d->%d, %d->%d records",
				r.rank, r2.rank, len(recs), len(recs2))
		}
		for i := range recs {
			if !reflect.DeepEqual(recs[i], recs2[i]) {
				t.Fatalf("round trip changed record %d:\n%+v\n%+v", i, recs[i], recs2[i])
			}
		}
	})
}
