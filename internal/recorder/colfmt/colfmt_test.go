package colfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/recorder"
	"repro/internal/recorder/colwire"
	"repro/internal/recorder/v1test"
	"repro/internal/storage"
)

// genStream builds a deterministic, TStart-sorted rank stream with the
// shapes real traces have: interleaved layers, repeated paths (dictionary
// back-refs), pathless data ops, Path2 renames, and varied arg counts.
func genStream(rank, n int, seed int64) []recorder.Record {
	rng := rand.New(rand.NewSource(seed))
	paths := []string{"/ckpt/step0001", "/ckpt/step0002", "/data/mesh.h5", "/out/results.dat", ""}
	t := uint64(rng.Intn(100))
	recs := make([]recorder.Record, 0, n)
	for i := 0; i < n; i++ {
		r := recorder.Record{
			Rank:   int32(rank),
			Layer:  recorder.LayerPOSIX,
			TStart: t,
			TEnd:   t + uint64(rng.Intn(50)),
			Path:   paths[rng.Intn(len(paths))],
		}
		switch i % 5 {
		case 0:
			r.Func = recorder.FuncOpen
			r.Args = []int64{int64(recorder.OCreat | recorder.OWronly), 0o644, int64(3 + i%7)}
		case 1:
			r.Func = recorder.FuncPwrite
			r.Path = ""
			r.Args = []int64{int64(3 + i%7), 4096, int64(i) * 4096, 4096}
		case 2:
			r.Func = recorder.FuncRename
			r.Path2 = paths[rng.Intn(4)]
		case 3:
			r.Layer = recorder.LayerHDF5
			r.Func = recorder.FuncH5Dwrite
		case 4:
			r.Func = recorder.FuncClose
			r.Path = ""
			r.Args = []int64{int64(3 + i%7)}
		}
		recs = append(recs, r)
		t += uint64(rng.Intn(20))
	}
	return recs
}

func encode(t *testing.T, rank int, recs []recorder.Record, opts EncodeOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeStream(&buf, rank, recs, opts); err != nil {
		t.Fatalf("EncodeStream: %v", err)
	}
	return buf.Bytes()
}

const argArenaLen = 8192

// materialize decodes the rest of c's walk over r into fresh records, Args
// copied into chunked arenas so they outlive the mapping. On error the
// records decoded before it are returned alongside it.
func (r *Reader) materialize(c *Cursor) ([]recorder.Record, error) {
	// A record costs at least two column bytes, so len(data) safely bounds a
	// forged declared count's preallocation.
	records := make([]recorder.Record, 0, min(r.declared, uint64(len(r.data))))
	var arena []int64
	for c.Next() {
		rec := c.rec
		if n := len(rec.Args); n > 0 {
			if len(arena) < n {
				arena = make([]int64, argArenaLen)
			}
			copy(arena, rec.Args)
			rec.Args = arena[:n:n]
			arena = arena[n:]
		}
		records = append(records, rec)
	}
	return records, c.Err()
}

func requireRecordsEqual(t *testing.T, want, got []recorder.Record) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("record count: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("record %d differs:\nwant %+v\ngot  %+v", i, want[i], got[i])
		}
	}
}

// TestReplayForgedCountAllocatesLittle: a header that promises far more
// records than the stream could hold sizes replay's log by the stream's
// length, not by the promise.
func TestReplayForgedCountAllocatesLittle(t *testing.T) {
	data := []byte(colwire.Magic)
	data = binary.AppendUvarint(data, 0)     // rank
	data = binary.AppendUvarint(data, 1<<20) // forged record count
	data = append(data, 0xff, 0xff)          // a torn first frame
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = r.replay()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("replay of a torn stream succeeded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("replay allocated %d bytes for a %d-byte stream", got, len(data))
	}
}

func TestRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		opts EncodeOptions
	}{
		{"empty", 0, EncodeOptions{}},
		{"single", 1, EncodeOptions{}},
		{"one-block", 100, EncodeOptions{}},
		{"many-blocks", 1000, EncodeOptions{BlockRecords: 16}},
		{"block-boundary", 64, EncodeOptions{BlockRecords: 16}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recs := genStream(3, tc.n, 42)
			data := encode(t, 3, recs, tc.opts)
			r, err := NewReader(data)
			if err != nil {
				t.Fatalf("NewReader: %v", err)
			}
			if r.rank != 3 || r.declaredRecords() != tc.n {
				t.Fatalf("header: rank %d declared %d", r.rank, r.declaredRecords())
			}
			if r.dictOff < 0 {
				t.Fatal("intact stream has no footer")
			}
			got, err := r.materialize(r.Cursor())
			if err != nil {
				t.Fatalf("materialize: %v", err)
			}
			requireRecordsEqual(t, recs, got)
		})
	}
}

// TestCrossFormatParity pins that both formats decode a stream to identical
// records — the per-stream half of the analysis-equivalence gate.
func TestCrossFormatParity(t *testing.T) {
	recs := genStream(1, 500, 7)
	var v1 bytes.Buffer
	if err := v1test.EncodeRankStream(&v1, 1, recs); err != nil {
		t.Fatal(err)
	}
	_, fromV1, err := v1test.DecodeRankStream(&v1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(encode(t, 1, recs, EncodeOptions{BlockRecords: 64}))
	if err != nil {
		t.Fatal(err)
	}
	fromCol, err := r.materialize(r.Cursor())
	if err != nil {
		t.Fatal(err)
	}
	requireRecordsEqual(t, fromV1, fromCol)
}

// TestCursorReuse pins the zero-copy contract: the cursor yields the same
// sequence the materializer does, through a reused record.
func TestCursorReuse(t *testing.T) {
	recs := genStream(2, 300, 9)
	r, err := NewReader(encode(t, 2, recs, EncodeOptions{BlockRecords: 32}))
	if err != nil {
		t.Fatal(err)
	}
	c := r.Cursor()
	var prev *recorder.Record
	for i := 0; c.Next(); i++ {
		rec := c.Record()
		if prev != nil && prev != rec {
			t.Fatal("cursor did not reuse its record")
		}
		prev = rec
		got := *rec
		if len(got.Args) > 0 {
			got.Args = append([]int64(nil), got.Args...)
		}
		if !reflect.DeepEqual(recs[i], got) {
			t.Fatalf("record %d differs:\nwant %+v\ngot  %+v", i, recs[i], got)
		}
	}
	if err := c.Err(); err != nil {
		t.Fatalf("cursor error: %v", err)
	}
	if c.decodeStats().Records != len(recs) {
		t.Fatalf("stats records %d, want %d", c.decodeStats().Records, len(recs))
	}
}

// TestTornTail cuts an encoded stream at every byte boundary: strict decode
// must fail (prefix preserved), lenient decode must keep exactly the blocks
// before the cut with declaredRecords-exact drop accounting, and nothing may panic
// or over-read.
func TestTornTail(t *testing.T) {
	const n = 96
	recs := genStream(0, n, 11)
	data := encode(t, 0, recs, EncodeOptions{BlockRecords: 16})
	for cut := 0; cut < len(data); cut++ {
		torn := data[:cut]
		r, err := NewReader(torn)
		if err != nil {
			continue // header gone: unreadable, nothing to salvage
		}
		if r.dictOff >= 0 {
			t.Fatalf("cut=%d: torn stream claims an intact footer", cut)
		}
		got, err := r.materialize(r.Cursor())
		if err == nil {
			// The cut only ate trailer bytes: every record and the
			// dictionary survived, so the decode is legitimately complete.
			requireRecordsEqual(t, recs, got)
			continue
		}
		requireRecordsEqual(t, recs[:len(got)], got)
		lr, err2 := NewReader(torn)
		if err2 != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err2)
		}
		lc := lr.lenientCursor()
		sal, serr := lr.materialize(lc)
		stats := lc.decodeStats()
		requireRecordsEqual(t, recs[:len(sal)], sal)
		if len(sal)%16 != 0 {
			t.Fatalf("cut=%d: salvage kept a partial block (%d records)", cut, len(sal))
		}
		if serr == nil {
			t.Fatalf("cut=%d: lenient decode reported no loss", cut)
		}
		var te *recorder.TruncatedError
		if errors.As(serr, &te) {
			if te.Declared != n || te.Decoded != stats.Records {
				t.Fatalf("cut=%d: truncation accounting %+v (stats %+v)", cut, te, stats)
			}
			if !errors.Is(serr, recorder.ErrTruncated) {
				t.Fatalf("cut=%d: TruncatedError not Is(ErrTruncated)", cut)
			}
		}
	}
}

// TestCorruptBlockSkip flips a byte inside one mid-stream block: the strict
// walk fails, and the lenient walk — footer intact — skips exactly that
// block and keeps every other record.
func TestCorruptBlockSkip(t *testing.T) {
	const n, per = 128, 16
	recs := genStream(4, n, 13)
	data := encode(t, 4, recs, EncodeOptions{BlockRecords: per})
	// Find the third data block's payload and corrupt a byte in it.
	off := len(colwire.Magic)
	_, off, _ = uvarintAt(data, off)
	_, off, _ = uvarintAt(data, off)
	for b := 0; b < 2; b++ {
		plen := int(uint32(data[off+1]) | uint32(data[off+2])<<8 | uint32(data[off+3])<<16 | uint32(data[off+4])<<24)
		off += colwire.FrameHdrLen + plen
	}
	mut := bytes.Clone(data)
	mut[off+colwire.FrameHdrLen+3] ^= 0xff

	r, err := NewReader(mut)
	if err != nil {
		t.Fatal(err)
	}
	if r.dictOff < 0 {
		t.Fatal("footer should survive a mid-stream flip")
	}
	if _, err := r.materialize(r.Cursor()); err == nil {
		t.Fatal("strict decode accepted a corrupt block")
	} else {
		var ce *corruptError
		if !errors.As(err, &ce) || ce.Block != 2 {
			t.Fatalf("want CorruptError at block 2, got %v", err)
		}
	}
	lr, _ := NewReader(mut)
	lc := lr.lenientCursor()
	got, serr := lr.materialize(lc)
	stats := lc.decodeStats()
	if serr != nil {
		t.Fatalf("lenient walk errored: %v", serr)
	}
	if stats.Skipped != 1 || stats.Blocks != n/per-1 {
		t.Fatalf("stats %+v, want 1 skipped of %d", stats, n/per)
	}
	want := append(append([]recorder.Record(nil), recs[:2*per]...), recs[3*per:]...)
	requireRecordsEqual(t, want, got)
}

// rewriteBlock re-encodes a stream with frame block's payload replaced by
// mutate's result: the frame's length and CRC are recomputed and the
// trailer's dictionary offset follows the shift, so the footer stays
// intact and only the block's contents are damaged.
func rewriteBlock(data []byte, block int, mutate func(payload []byte) []byte) []byte {
	off := len(colwire.Magic)
	_, off, _ = uvarintAt(data, off)
	_, off, _ = uvarintAt(data, off)
	out := bytes.Clone(data[:off])
	dictOff := 0
	for b := 0; ; b++ {
		kind := data[off]
		plen := int(binary.LittleEndian.Uint32(data[off+1:]))
		payload := data[off+colwire.FrameHdrLen : off+colwire.FrameHdrLen+plen]
		off += colwire.FrameHdrLen + plen
		if b == block {
			payload = mutate(bytes.Clone(payload))
		}
		if kind == colwire.KindDict {
			dictOff = len(out)
		}
		out = append(out, kind)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, colwire.Castagnoli))
		out = append(out, payload...)
		if kind == colwire.KindDict {
			break
		}
	}
	trailer := bytes.Clone(data[off:])
	binary.LittleEndian.PutUint64(trailer, uint64(dictOff))
	return append(out, trailer...)
}

// splitColumns splits a footer-mode data payload into its prefix (record
// count and dictionary delta) and its column segments.
func splitColumns(payload []byte) (prefix []byte, segs [colwire.Segments][]byte) {
	_, off, _ := uvarintAt(payload, 0)
	nnew, off, _ := uvarintAt(payload, off)
	for i := uint64(0); i < nnew; i++ {
		n, noff, _ := uvarintAt(payload, off)
		off = noff + int(n)
	}
	prefix = payload[:off]
	for s := range segs {
		n, noff, _ := uvarintAt(payload, off)
		segs[s] = payload[noff : noff+int(n)]
		off = noff + int(n)
	}
	return prefix, segs
}

// TestCursorColumnBounds pins the cursor's column bounds on one block of
// three: each of the eight columns cut short by one byte, and each
// segment given a length past the payload. The strict cursor fails with a
// corruptError for that block naming the column; the lenient cursor, the
// footer intact, skips the block and keeps every other record.
func TestCursorColumnBounds(t *testing.T) {
	const n, per, bad = 48, 16, 1
	recs := genStream(4, n, 29)
	data := encode(t, 4, recs, EncodeOptions{BlockRecords: per})
	want := slices.Concat(recs[:bad*per], recs[(bad+1)*per:])
	type damage struct {
		name   string
		col    int
		mutate func(payload []byte) []byte
	}
	var cases []damage
	for s := 0; s < colwire.Segments; s++ {
		cases = append(cases, damage{"cut short", s, func(payload []byte) []byte {
			prefix, segs := splitColumns(payload)
			out := bytes.Clone(prefix)
			for k, seg := range segs {
				if k == s {
					seg = seg[:len(seg)-1]
				}
				out = binary.AppendUvarint(out, uint64(len(seg)))
				out = append(out, seg...)
			}
			return out
		}}, damage{"length past the payload", s, func(payload []byte) []byte {
			prefix, segs := splitColumns(payload)
			out := bytes.Clone(prefix)
			for k, seg := range segs {
				slen := uint64(len(seg))
				if k == s {
					slen = uint64(len(payload))
				}
				out = binary.AppendUvarint(out, slen)
				out = append(out, seg...)
			}
			return out
		}})
	}
	for _, d := range cases {
		name := fmt.Sprintf("%s %s", colNames[d.col], d.name)
		mut := rewriteBlock(data, bad+0, d.mutate)
		r, err := NewReader(mut)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.dictOff < 0 {
			t.Fatalf("%s: the footer did not survive the rewrite", name)
		}
		var ce *corruptError
		if _, err := r.materialize(r.Cursor()); !errors.As(err, &ce) || ce.Block != bad ||
			!strings.Contains(ce.Reason, colNames[d.col]+" column") {
			t.Fatalf("%s: strict walk: %v; want a corruptError at block %d naming the %s column", name, err, bad, colNames[d.col])
		}
		lc := r.lenientCursor()
		got, err := r.materialize(lc)
		if err != nil {
			t.Fatalf("%s: lenient walk: %v", name, err)
		}
		if st := lc.decodeStats(); st.Skipped != 1 || st.Blocks != n/per-1 {
			t.Fatalf("%s: lenient stats %+v, want block %d skipped and the other %d kept", name, st, bad, n/per-1)
		}
		requireRecordsEqual(t, want, got)
	}
}

func TestOpenMapsOnDisk(t *testing.T) {
	dir := t.TempDir()
	recs := genStream(0, 200, 17)
	path := filepath.Join(dir, recorder.RankFileName(0))
	var buf bytes.Buffer
	if err := EncodeStream(&buf, 0, recs, EncodeOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Run("mapFile", func(t *testing.T) {
		d, unmap, err := mapFile(path)
		if err != nil {
			t.Skipf("mmap unavailable: %v", err)
		}
		r, err := NewReader(d)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.materialize(r.Cursor())
		if err != nil {
			t.Fatal(err)
		}
		if err := unmap(); err != nil {
			t.Fatalf("munmap: %v", err)
		}
		// Records must survive the unmap: paths were interned, args copied.
		requireRecordsEqual(t, recs, got)
	})
	t.Run("openRank", func(t *testing.T) {
		r, release, err := openRank(storage.OS(), dir, 0)
		if err != nil {
			t.Fatalf("openRank: reader %v, err %v", r, err)
		}
		got, err := r.materialize(r.Cursor())
		if err != nil {
			t.Fatal(err)
		}
		release() // unmaps where the platform can map files
		requireRecordsEqual(t, recs, got)
	})
}

// traceOf returns the trace whose rank streams are perRank as given.
func traceOf(meta recorder.Meta, perRank [][]recorder.Record) *recorder.Trace {
	tracers := make([]*recorder.RankTracer, len(perRank))
	for r, rs := range perRank {
		tracers[r] = recorder.NewRankTracer(r)
		for _, rec := range rs {
			tracers[r].Emit(rec, rec.Args)
		}
	}
	tr, err := recorder.TraceOf(meta, tracers)
	if err != nil {
		panic(err)
	}
	return tr
}

func mkTrace(ranks, perRank int, seed int64) *recorder.Trace {
	streams := make([][]recorder.Record, ranks)
	for r := range streams {
		streams[r] = genStream(r, perRank, seed+int64(r))
	}
	return traceOf(recorder.Meta{App: "colfmt-test", Ranks: ranks, PPN: 2, Steps: 1, Seed: uint64(seed)}, streams)
}

// TestDirRoundTripBothFormats round-trips a trace directory in each
// format at several load worker counts: columnar through SaveDirOn and
// LoadDirOn, v1 through the test-support writer and decoder. LoadDirOn
// rejects the v1 directory at every worker count, naming its lowest rank.
func TestDirRoundTripBothFormats(t *testing.T) {
	tr := mkTrace(6, 150, 21)
	for _, f := range savers {
		for _, workers := range []int{0, 1, 3} {
			t.Run(fmt.Sprintf("%s/w%d", f.name, workers), func(t *testing.T) {
				dir := t.TempDir()
				if err := f.save(dir, tr); err != nil {
					t.Fatal(err)
				}
				got, err := LoadDirOn(storage.OS(), dir, workers)
				if f.name == "v1" {
					if !errors.Is(err, ErrBadMagic) || !strings.HasPrefix(err.Error(), "recorder: reading rank 0: ") {
						t.Fatalf("LoadDirOn of a v1 directory: %v, want rank 0's bad magic", err)
					}
					got, err = v1test.LoadDir(dir)
				}
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(tr.Meta, got.Meta) {
					t.Fatalf("meta differs: %+v vs %+v", tr.Meta, got.Meta)
				}
				for r := range tr.PerRank {
					requireRecordsEqual(t, tr.Records(r), got.Records(r))
				}
			})
		}
	}
}

// TestMixedFormatDir: a directory whose ranks are half v1, half columnar
// is not a trace. The strict load and scan fail on the lowest v1 rank with
// ErrBadMagic, while its columnar ranks still open; a lenient scan counts
// each v1 rank unreadable and keeps the columnar ones whole.
func TestMixedFormatDir(t *testing.T) {
	tr := mkTrace(4, 80, 23)
	dir := t.TempDir()
	if err := SaveDirOn(storage.OS(), dir, tr); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r += 2 {
		writeV1Rank(t, dir, r, r, tr.Records(r))
	}
	for _, workers := range []int{1, 2} {
		_, err := LoadDirOn(storage.OS(), dir, workers)
		if !errors.Is(err, ErrBadMagic) || !strings.HasPrefix(err.Error(), "recorder: reading rank 0: colfmt: bad magic \"SEMFSTR1") {
			t.Fatalf("workers=%d: mixed directory load: %v", workers, err)
		}
	}
	for rank := range tr.PerRank {
		_, release, err := OpenRankOn(storage.OS(), dir, rank)
		if rank%2 == 0 {
			if !errors.Is(err, ErrBadMagic) || !strings.HasPrefix(err.Error(), fmt.Sprintf("recorder: reading rank %d: ", rank)) {
				t.Fatalf("rank %d (v1): OpenRankOn = %v", rank, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("rank %d (columnar): %v", rank, err)
		}
		release()
	}
	got, sal, err := loadLenient(storage.OS(), dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sal.Full != 2 || sal.Unreadable != 2 || sal.Records != 160 || sal.Dropped != 0 || len(sal.Errs) != 2 {
		t.Fatalf("lenient salvage: %v", sal)
	}
	for _, e := range sal.Errs {
		if !errors.Is(e, ErrBadMagic) {
			t.Fatalf("salvage error %v is not ErrBadMagic", e)
		}
	}
	for rank := range tr.PerRank {
		if rank%2 == 0 {
			if len(got.PerRank[rank]) != 0 {
				t.Fatalf("rank %d (v1) yielded records", rank)
			}
			continue
		}
		requireRecordsEqual(t, tr.Records(rank), got.Records(rank))
	}
}

// TestLoadDirLenientTornFixture is the seeded multi-rank torn-trace
// fixture: per-rank damage (torn tails at seeded offsets, one missing file,
// one mid-block corruption) must salvage deterministically — identical
// Salvage at every worker count, rank-ordered errors, exact Dropped.
func TestLoadDirLenientTornFixture(t *testing.T) {
	const ranks, perRank = 8, 64
	tr := mkTrace(ranks, perRank, 31)
	dir := t.TempDir()
	// Re-save with small blocks so tears land mid-stream.
	if err := saveSmallBlocks(dir, tr); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	damage := map[int]string{}
	for _, rank := range []int{1, 4} { // torn tails at seeded offsets
		path := filepath.Join(dir, recorder.RankFileName(rank))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cut := len(colwire.Magic) + 4 + rng.Intn(len(data)-len(colwire.Magic)-4)
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		damage[rank] = "torn"
	}
	if err := os.Remove(filepath.Join(dir, recorder.RankFileName(6))); err != nil { // missing
		t.Fatal(err)
	}
	damage[6] = "missing"
	{ // mid-block payload corruption with intact footer
		path := filepath.Join(dir, recorder.RankFileName(2))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		off := len(colwire.Magic)
		_, off, _ = uvarintAt(data, off)
		_, off, _ = uvarintAt(data, off)
		for blk := 0; blk < 3; blk++ { // walk to the fourth block's payload
			plen := int(uint32(data[off+1]) | uint32(data[off+2])<<8 | uint32(data[off+3])<<16 | uint32(data[off+4])<<24)
			off += colwire.FrameHdrLen + plen
		}
		data[off+colwire.FrameHdrLen+2] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		damage[2] = "corrupt"
	}

	var first *recorder.Salvage
	for _, workers := range []int{0, 1, 2, 8} {
		got, sal, err := loadLenient(storage.OS(), dir, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// Undamaged ranks load fully; damaged ranks keep a valid prefix (or
		// block subset) of their original records.
		for r := 0; r < ranks; r++ {
			recs := got.Records(r)
			if damage[r] == "" {
				requireRecordsEqual(t, tr.Records(r), recs)
			} else if damage[r] == "torn" {
				requireRecordsEqual(t, tr.Records(r)[:len(recs)], recs)
			}
		}
		if sal.Ranks != ranks || sal.Unreadable == 0 || sal.Truncated == 0 {
			t.Fatalf("workers=%d: salvage %+v", workers, sal)
		}
		// Exact drop accounting: every record not loaded from a
		// header-declaring stream is dropped (rank 6's file is gone — its
		// records are not in any stream's declared count).
		wantDropped := 0
		for r := 0; r < ranks; r++ {
			if r != 6 {
				wantDropped += perRank - len(got.PerRank[r])
			}
		}
		if sal.Dropped != wantDropped {
			t.Fatalf("workers=%d: Dropped=%d want %d", workers, sal.Dropped, wantDropped)
		}
		if sal.BlocksDropped == 0 {
			t.Fatalf("workers=%d: corruption skipped no blocks: %+v", workers, sal)
		}
		// Determinism across worker counts, including error order.
		if first == nil {
			first = sal
			for i := 1; i < len(sal.Errs); i++ {
				if sal.Errs[i-1].Error() >= sal.Errs[i].Error() {
					// Errors are rank-ordered; file names sort with rank.
					t.Fatalf("errors out of rank order: %v", sal.Errs)
				}
			}
		} else {
			if sal.Full != first.Full || sal.Truncated != first.Truncated ||
				sal.Unreadable != first.Unreadable || sal.Records != first.Records ||
				sal.Salvaged != first.Salvaged || sal.Dropped != first.Dropped ||
				sal.Blocks != first.Blocks || sal.BlocksDropped != first.BlocksDropped ||
				len(sal.Errs) != len(first.Errs) {
				t.Fatalf("salvage varies with workers:\n%+v\n%+v", sal, first)
			}
			for i := range sal.Errs {
				if sal.Errs[i].Error() != first.Errs[i].Error() {
					t.Fatalf("error %d varies with workers: %q vs %q", i, sal.Errs[i], first.Errs[i])
				}
			}
		}
	}
}

// saveSmallBlocks saves tr columnar with 8-record blocks so fixture damage
// lands mid-stream.
func saveSmallBlocks(dir string, tr *recorder.Trace) error {
	if err := storage.OS().MkdirAll(dir); err != nil {
		return err
	}
	if err := SaveDirOn(storage.OS(), dir, tr); err != nil {
		return err
	}
	for rank := range tr.PerRank {
		var buf bytes.Buffer
		if err := EncodeStream(&buf, rank, tr.Records(rank), EncodeOptions{BlockRecords: 8}); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, recorder.RankFileName(rank)), buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// TestBackendFallback pins the storage seam: a flaky-wrapped backend must
// not be mmap'd (its Read hooks have to fire), and loads still work through
// the ReadFile fallback.
func TestBackendFallback(t *testing.T) {
	tr := mkTrace(3, 60, 37)
	dir := t.TempDir()
	if err := SaveDirOn(storage.OS(), dir, tr); err != nil {
		t.Fatal(err)
	}
	fb := storage.NewFlaky(storage.OS(), storage.Schedule{})
	if storage.MapsFiles(fb) {
		t.Fatal("flaky backend claims mappable files")
	}
	if !storage.MapsFiles(storage.NewRetry(storage.OS(), storage.RetryOptions{})) {
		t.Fatal("retry-over-osdisk should be mappable")
	}
	got, err := LoadDirOn(fb, dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for r := range tr.PerRank {
		requireRecordsEqual(t, tr.Records(r), got.Records(r))
	}
}
