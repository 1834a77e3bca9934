package ckpt

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/frame"
	"repro/internal/harness"
	"repro/internal/payload"
	"repro/internal/recorder"
	"repro/internal/storage"
)

func testManifest() Manifest {
	return Manifest{Kind: "test", Ranks: 4, PPN: 2, Seed: 1, Semantics: "strong", Params: "p=1"}
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := OpenOn(storage.OS(), dir, testManifest())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func journalPath(dir string) string { return filepath.Join(dir, journalName) }

func TestStoreRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.Append("a", []byte("one")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := s.Append("b", []byte("two")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	// Re-appending a key supersedes it (last-wins).
	if err := s.Append("a", []byte("one-v2")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s = mustOpen(t, dir)
	defer s.Close()
	if got := s.Keys(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("Keys = %v, want [a b]", got)
	}
	if b, ok := s.Lookup("a"); !ok || string(b) != "one-v2" {
		t.Fatalf("Lookup(a) = %q, %v; want one-v2", b, ok)
	}
	st := s.Stats()
	if st.Degraded() {
		t.Fatalf("clean journal reported degraded: %+v", st)
	}
	if st.Records != 3 || st.Keys != 2 {
		t.Fatalf("Stats = %+v, want 3 records, 2 keys", st)
	}
}

func TestManifestMismatch(t *testing.T) {
	dir := t.TempDir()
	mustOpen(t, dir).Close()
	m := testManifest()
	m.Seed = 99
	if _, err := OpenOn(storage.OS(), dir, m); !errors.Is(err, ErrMismatch) {
		t.Fatalf("Open with different seed: err = %v, want ErrMismatch", err)
	}
}

func TestTornTailSalvage(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.Append("a", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("b", []byte("two")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	intact, err := os.Stat(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	// A crash mid-append leaves a half-written record: magic plus a few
	// header bytes, no payload.
	f, err := os.OpenFile(journalPath(dir), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(recMagic + "\x40\x00")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s = mustOpen(t, dir)
	st := s.Stats()
	if !st.Degraded() || st.Dropped != 1 || st.TailBytes != 6 {
		t.Fatalf("Stats = %+v, want 1 dropped torn record, 6 tail bytes", st)
	}
	if got := s.Keys(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("Keys after salvage = %v, want [a b]", got)
	}
	// Recovery must have truncated the torn tail so appends land clean.
	now, err := os.Stat(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if now.Size() != intact.Size() {
		t.Fatalf("journal is %d bytes after recovery, want %d (tail truncated)", now.Size(), intact.Size())
	}
	if err := s.Append("c", []byte("three")); err != nil {
		t.Fatalf("Append after salvage: %v", err)
	}
	s.Close()

	s = mustOpen(t, dir)
	defer s.Close()
	if st := s.Stats(); st.Degraded() {
		t.Fatalf("journal still degraded after salvage+append: %+v", st)
	}
	if got := s.Keys(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("Keys = %v, want [a b c]", got)
	}
}

func TestCorruptRecordCutsTail(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.Append("a", []byte("one")); err != nil {
		t.Fatal(err)
	}
	first, err := os.Stat(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("b", []byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("c", []byte("three")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Flip one payload byte of the second record: its CRC no longer matches,
	// and everything from there on is untrusted tail.
	f, err := os.OpenFile(journalPath(dir), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, first.Size()+frame.HeaderLen); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s = mustOpen(t, dir)
	defer s.Close()
	st := s.Stats()
	if st.Records != 1 || st.Dropped != 1 || st.TailBytes == 0 {
		t.Fatalf("Stats = %+v, want 1 record kept, 1 dropped, nonzero tail", st)
	}
	if got := s.Keys(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("Keys = %v, want [a]", got)
	}
}

func TestReadJournalIsReadOnly(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.Append("a", []byte("one")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	f, err := os.OpenFile(journalPath(dir), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("garbage")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(journalPath(dir))

	keys, st, err := ReadJournalOn(storage.OS(), dir)
	if err != nil {
		t.Fatalf("ReadJournalOn: %v", err)
	}
	if !reflect.DeepEqual(keys, []string{"a"}) || st.Dropped != 1 {
		t.Fatalf("ReadJournalOn = %v, %+v; want [a], 1 dropped", keys, st)
	}
	after, _ := os.Stat(journalPath(dir))
	if after.Size() != before.Size() {
		t.Fatalf("ReadJournalOn changed the journal: %d -> %d bytes", before.Size(), after.Size())
	}
}

func TestZeroLengthJournalResumes(t *testing.T) {
	// A crash between journal creation and the first record's append (the
	// ckpt.append.begin window) leaves a valid manifest next to a
	// zero-length journal. Reopening must treat that as a clean empty
	// store — no salvage, no error — and resume appends normally.
	dir := t.TempDir()
	mustOpen(t, dir).Close()
	if fi, err := os.Stat(journalPath(dir)); err != nil || fi.Size() != 0 {
		t.Fatalf("journal after open+close: size=%v err=%v, want empty file", fi, err)
	}

	s := mustOpen(t, dir)
	if st := s.Stats(); st.Degraded() || st.Records != 0 || st.Keys != 0 {
		t.Fatalf("zero-length journal recovered as %v, want clean empty", st)
	}
	if err := s.Append("a", []byte("after-empty-recovery")); err != nil {
		t.Fatalf("Append after empty recovery: %v", err)
	}
	s.Close()

	s = mustOpen(t, dir)
	defer s.Close()
	if b, ok := s.Lookup("a"); !ok || string(b) != "after-empty-recovery" {
		t.Fatalf("Lookup after resume = %q, %v", b, ok)
	}
}

func TestAppendAfterClose(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	s.Close()
	if err := s.Append("a", []byte("x")); err == nil {
		t.Fatal("Append on a closed store succeeded")
	}
}

// smallResult runs a tiny harness workload so the codec test exercises a real
// trace, not a hand-built one.
func smallResult(t *testing.T) *harness.Result {
	t.Helper()
	meta := recorder.Meta{App: "codec-test", Ranks: 2, PPN: 2, Seed: 1}
	res, err := harness.Run(harness.Config{Ranks: 2, PPN: 2, Seed: 1}, meta, func(c *harness.Ctx) error {
		fd, err := c.OS.Open("/out.dat", recorder.OCreat|recorder.OWronly, 0o644)
		if err != nil {
			return err
		}
		if _, err := c.OS.Pwrite(fd, payload.Bytes(make([]byte, 64)), int64(c.Rank)*64); err != nil {
			return err
		}
		return c.OS.Close(fd)
	})
	if err != nil {
		t.Fatalf("harness.Run: %v", err)
	}
	if err := res.Err(); err != nil {
		t.Fatalf("rank error: %v", err)
	}
	return res
}

func TestResultCodecRoundtrip(t *testing.T) {
	res := smallResult(t)
	blob, err := encodeResult(res)
	if err != nil {
		t.Fatalf("EncodeResult: %v", err)
	}
	got, err := DecodeResult(blob)
	if err != nil {
		t.Fatalf("DecodeResult: %v", err)
	}
	if !got.Replayed {
		t.Fatal("decoded result not marked Replayed")
	}
	if got.FS != nil || len(got.Errs) != 0 {
		t.Fatal("decoded result carries a file system or rank errors")
	}
	if !reflect.DeepEqual(got.Trace.Meta, res.Trace.Meta) {
		t.Fatalf("meta mismatch: %+v vs %+v", got.Trace.Meta, res.Trace.Meta)
	}
	for rank := range res.Trace.PerRank {
		if !reflect.DeepEqual(got.Trace.Records(rank), res.Trace.Records(rank)) {
			t.Fatalf("rank %d records differ after roundtrip", rank)
		}
	}
	// The contract behind byte-identical resumed reports: encoding is stable.
	blob2, err := encodeResult(got)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !reflect.DeepEqual(blob, blob2) {
		t.Fatal("re-encoding a decoded result changed the bytes")
	}
}

func TestEncodeResultRefusesBadInput(t *testing.T) {
	if _, err := encodeResult(nil); err == nil {
		t.Fatal("EncodeResult(nil) succeeded")
	}
	if _, err := encodeResult(&harness.Result{}); err == nil {
		t.Fatal("EncodeResult with no trace succeeded")
	}
	res := smallResult(t)
	res.Errs = []error{errors.New("rank 0 failed")}
	if _, err := encodeResult(res); err == nil {
		t.Fatal("EncodeResult with rank errors succeeded")
	}
}

// TestDecodeResultRejectsForgedRankCount feeds a ~50-byte blob whose
// header and rank count both declare 4e12 ranks: the decoder must return
// an error (LookupResult's fall-back-to-re-execution contract) instead of
// sizing a table by the forged count.
func TestDecodeResultRejectsForgedRankCount(t *testing.T) {
	hdr := []byte(`{"v":2,"meta":{"Ranks":4000000000000}}`)
	blob := binary.AppendUvarint(nil, uint64(len(hdr)))
	blob = append(blob, hdr...)
	blob = binary.AppendUvarint(blob, 4_000_000_000_000)
	blob = append(blob, 0, 0, 0)
	if len(blob) > 50 {
		t.Fatalf("forged blob is %d bytes", len(blob))
	}
	if _, err := DecodeResult(blob); err == nil || !strings.Contains(err.Error(), "rank streams in") {
		t.Fatalf("DecodeResult of a forged rank count: err = %v", err)
	}
}

func TestStoreResultHelpers(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	res := smallResult(t)
	if err := s.AppendResult("cfg", res); err != nil {
		t.Fatalf("AppendResult: %v", err)
	}
	s.Close()

	s = mustOpen(t, dir)
	defer s.Close()
	got, ok, err := s.LookupResult("cfg")
	if err != nil || !ok {
		t.Fatalf("LookupResult = %v, %v", ok, err)
	}
	for rank := range res.Trace.PerRank {
		if !reflect.DeepEqual(got.Trace.Records(rank), res.Trace.Records(rank)) {
			t.Fatalf("journaled rank %d differs from the original", rank)
		}
	}
	if _, ok, err := s.LookupResult("missing"); ok || err != nil {
		t.Fatalf("LookupResult(missing) = %v, %v; want miss", ok, err)
	}
}

// TestForgedLengthBoundedAlloc: a tail header declaring a 1 GiB payload
// with nothing behind it is tail damage, and recovery must find that out
// without allocating the declared size.
func TestForgedLengthBoundedAlloc(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.Append("a", []byte("one")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	f, err := os.OpenFile(journalPath(dir), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	tail := binary.LittleEndian.AppendUint32([]byte(recMagic), 1<<30)
	if _, err := f.Write(binary.LittleEndian.AppendUint32(tail, 0)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	keys, st, err := ReadJournalOn(storage.OS(), dir)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys, []string{"a"}) || st.Dropped != 1 || st.TailBytes != 12 {
		t.Fatalf("ReadJournalOn = %v, %+v; want [a], 1 dropped, 12 tail bytes", keys, st)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 64<<20 {
		t.Fatalf("recovery allocated %d MiB for a forged 1 GiB length", d>>20)
	}
}
