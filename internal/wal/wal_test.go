package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/payload"
	"repro/internal/pfs"
	"repro/internal/storage"
)

func mustOpen(t *testing.T, fs *pfs.FileSystem, rank int, path string) *pfs.Handle {
	t.Helper()
	c := fs.NewClient(rank)
	h, _, err := c.Open(path, pfs.OCreat|pfs.ORdwr, 10)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.wal")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []logRecord{
		{Path: "/a", Off: 0, Now: 10, Data: []byte("hello")},
		{Path: "/a", Off: 5, Now: 20, Data: []byte("world")},
		{Path: "/b/c", Off: 4096, Now: 30, Data: bytes.Repeat([]byte{0xAB}, 1024)},
		{Path: "/empty", Off: 7, Now: 40, Data: nil},
	}
	for _, rec := range want {
		if _, err := appendRecord(f, rec, true); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	got, stats, err := recoverRecords(f)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != len(want) || stats.Dropped != 0 || stats.TailBytes != 0 {
		t.Fatalf("stats = %+v, want %d clean records", stats, len(want))
	}
	fi, _ := f.Stat()
	if stats.Good != fi.Size() {
		t.Fatalf("good offset %d != file size %d", stats.Good, fi.Size())
	}
	for i, rec := range got {
		if rec.Path != want[i].Path || rec.Off != want[i].Off || rec.Now != want[i].Now ||
			!bytes.Equal(rec.Data, want[i].Data) {
			t.Fatalf("record %d = %+v, want %+v", i, rec, want[i])
		}
	}
	f.Close()
}

func TestRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.wal")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	var goodEnd int64
	for i := 0; i < 3; i++ {
		n, err := appendRecord(f, logRecord{Path: "/t", Off: int64(i) * 8, Now: uint64(10 * i), Data: []byte("payload!")}, true)
		if err != nil {
			t.Fatal(err)
		}
		if i < 2 {
			goodEnd += n
		}
	}
	fi, _ := f.Stat()
	// Tear the last record at every byte boundary inside it.
	for cut := goodEnd + 1; cut < fi.Size(); cut += 3 {
		if err := f.Truncate(cut); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Seek(0, 0); err != nil {
			t.Fatal(err)
		}
		recs, stats, err := recoverRecords(f)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 2 || stats.Dropped != 1 || stats.Good != goodEnd {
			t.Fatalf("cut=%d: recs=%d dropped=%d good=%d, want 2/1/%d", cut, len(recs), stats.Dropped, stats.Good, goodEnd)
		}
		if stats.TailBytes != cut-goodEnd {
			t.Fatalf("cut=%d: tail=%d want %d", cut, stats.TailBytes, cut-goodEnd)
		}
	}
	f.Close()
}

func TestOpenSalvagesAndResumesAppends(t *testing.T) {
	dir := t.TempDir()
	fs := pfs.New(pfs.Options{Semantics: pfs.Strong})
	h := mustOpen(t, fs, 0, "/f")

	l, err := Open(0, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Write(h, 0, payload.Bytes([]byte("first")), 20); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail by appending garbage, as a crash mid-append would.
	path := filepath.Join(dir, logName(0))
	if f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0); err != nil {
		t.Fatal(err)
	} else {
		f.Write([]byte("WALR\xff\xff"))
		f.Close()
	}

	l2, err := Open(0, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := l2.stats.Salvaged; got != 1 {
		t.Fatalf("salvaged %d records, want 1", got)
	}
	fs2 := pfs.New(pfs.Options{Semantics: pfs.Strong})
	h2 := mustOpen(t, fs2, 0, "/f")
	if _, err := l2.Write(h2, 5, payload.Bytes([]byte("second")), 30); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	recs, stats, err := recoverDirOn(storage.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Dropped != 0 || len(recs[0]) != 2 {
		t.Fatalf("after salvage+append: %d records, stats %v; want 2 clean", len(recs[0]), stats[0])
	}
	if string(recs[0][0].Data) != "first" || string(recs[0][1].Data) != "second" {
		t.Fatalf("recovered %q/%q", recs[0][0].Data, recs[0][1].Data)
	}
}

// TestRecoverForgedLengthBoundedAlloc: a tail header declaring a 1 GiB
// payload with nothing behind it is tail damage, and recovery must find
// that out without allocating the declared size.
func TestRecoverForgedLengthBoundedAlloc(t *testing.T) {
	dir := t.TempDir()
	fs := pfs.New(pfs.Options{Semantics: pfs.Strong})
	l, err := Open(0, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Write(mustOpen(t, fs, 0, "/f"), 0, payload.Bytes([]byte("acked")), 20); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, logName(0)), os.O_APPEND|os.O_WRONLY, 0)
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
	recs, stats, err := recoverDirOn(storage.OS(), dir)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs[0]) != 1 || stats[0].Dropped != 1 || stats[0].TailBytes != 12 {
		t.Fatalf("recovered %d records, stats %+v; want 1, 1 dropped, 12 tail bytes", len(recs[0]), stats[0])
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 64<<20 {
		t.Fatalf("recovery allocated %d MiB for a forged 1 GiB length", d>>20)
	}
}

// openLog opens rank 0's log in a fresh test directory.
func openLog(t *testing.T, opts Options) *Log {
	t.Helper()
	opts.Dir = t.TempDir()
	l, err := Open(0, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// TestAckedWriteVisibleToNextRead: Write returns with the payload already
// in the pfs, so the next read sees it with nothing in between, and the
// ack still costs far less than the pfs write it made.
func TestAckedWriteVisibleToNextRead(t *testing.T) {
	fs := pfs.New(pfs.Options{Semantics: pfs.Strong})
	h := mustOpen(t, fs, 0, "/f")
	l := openLog(t, Options{})

	ackCost, err := l.Write(h, 0, payload.Bytes(bytes.Repeat([]byte{1}, 4096)), 20)
	if err != nil {
		t.Fatal(err)
	}
	directCost, err := h.Write(8192, payload.Bytes(bytes.Repeat([]byte{2}, 4096)), 30)
	if err != nil {
		t.Fatal(err)
	}
	if ackCost >= directCost {
		t.Fatalf("ack cost %d not cheaper than direct pfs write %d", ackCost, directCost)
	}
	if got := l.stats; got.Acked != 1 || got.Drained != 1 {
		t.Fatalf("stats = %+v, want 1 acked, 1 drained", got)
	}
	p, _, err := h.Read(0, 4, 40)
	if err != nil {
		t.Fatal(err)
	}
	if data := p.Materialize(); !bytes.Equal(data, []byte{1, 1, 1, 1}) {
		t.Fatalf("read %v right after the ack, want the acked write", data)
	}
}

func TestLogFailureDegradesSticky(t *testing.T) {
	fs := pfs.New(pfs.Options{Semantics: pfs.Strong})
	h := mustOpen(t, fs, 0, "/f")
	l := openLog(t, Options{})

	// Kill the log disk out from under the Log.
	l.file.Close()
	for i := 0; i < 2; i++ {
		if _, err := l.Write(h, int64(i)*4, payload.Bytes([]byte("data")), uint64(20+10*i)); err != nil {
			t.Fatalf("write %d must survive log failure via write-through: %v", i, err)
		}
	}
	got := l.stats
	if !l.degraded || got.WriteThrough != 2 || got.Acked != 0 {
		t.Fatalf("degraded=%v stats=%+v, want sticky write-through", l.degraded, got)
	}
	p, _, err := h.Read(0, 8, 100)
	data := p.Materialize()
	if err != nil || !bytes.Equal(data, []byte("datadata")) {
		t.Fatalf("read %q, %v; write-through writes must land", data, err)
	}
}

// TestWriteAfterCrashFails: a write whose pfs half fails returns that
// error from the same call; no later operation inherits it.
func TestWriteAfterCrashFails(t *testing.T) {
	fs := pfs.New(pfs.Options{Semantics: pfs.Strong})
	c := fs.NewClient(0)
	h, _, err := c.Open("/f", pfs.OCreat|pfs.ORdwr, 10)
	if err != nil {
		t.Fatal(err)
	}
	l := openLog(t, Options{})
	c.Crash()
	if _, err := l.Write(h, 0, payload.Bytes([]byte("doomed")), 20); !errors.Is(err, pfs.ErrCrashed) {
		t.Fatalf("write after crash = %v, want ErrCrashed", err)
	}
	if got := l.stats; got.Acked != 1 || got.Drained != 0 {
		t.Fatalf("stats = %+v, want the write logged but not drained", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close = %v, want nil (the write's error was already returned)", err)
	}
}

// transientInjector fails every attempt of the first remaining write
// operations, so each one fails past the client's retry budget and reaches
// the WAL's retry loop as pfs.ErrTransient; later writes pass.
type transientInjector struct {
	mu        sync.Mutex
	remaining int
	failing   bool
}

func (ti *transientInjector) Intercept(op pfs.OpInfo) pfs.FaultAction {
	if op.Kind != pfs.OpWrite {
		return pfs.FaultAction{}
	}
	ti.mu.Lock()
	defer ti.mu.Unlock()
	if op.Attempt == 0 {
		ti.failing = ti.remaining > 0
		if ti.failing {
			ti.remaining--
		}
	}
	return pfs.FaultAction{Transient: ti.failing}
}

// TestWriteRetriesTransient: a write whose first two pfs attempts fail
// transiently lands on the third, inside the one call.
func TestWriteRetriesTransient(t *testing.T) {
	fs := pfs.New(pfs.Options{Semantics: pfs.Strong})
	h := mustOpen(t, fs, 0, "/f")
	fs.SetInjector(&transientInjector{remaining: 2})
	l := openLog(t, Options{})

	if _, err := l.Write(h, 0, payload.Bytes([]byte("y")), 20); err != nil {
		t.Fatalf("write with 2 transient faults = %v", err)
	}
	if got := l.stats; got.Retries != 2 || got.Drained != 1 {
		t.Fatalf("stats = %+v, want 2 retries, 1 drained", got)
	}
}

// TestWriteTransientExhausted: a write that never stops failing returns
// ErrTransient after maxDrainRetries retries, and the retries sleep no host
// time. Six retries at storage's default backoff would sleep at least
// 4.7 ms; the fastest of five exhausted writes must stay under 2 ms.
func TestWriteTransientExhausted(t *testing.T) {
	fs := pfs.New(pfs.Options{Semantics: pfs.Strong})
	h := mustOpen(t, fs, 0, "/f")
	fs.SetInjector(&transientInjector{remaining: 1 << 30})
	l := openLog(t, Options{NoFsync: true})

	fastest := time.Hour
	for i := 0; i < 5; i++ {
		start := time.Now()
		_, err := l.Write(h, 0, payload.Bytes([]byte("x")), uint64(20+10*i))
		fastest = min(fastest, time.Since(start))
		if !errors.Is(err, pfs.ErrTransient) {
			t.Fatalf("write %d = %v, want ErrTransient after retries exhausted", i, err)
		}
	}
	if got := l.stats; got.Retries != 5*maxDrainRetries || got.Drained != 0 {
		t.Fatalf("stats = %+v, want %d retries, 0 drained", got, 5*maxDrainRetries)
	}
	if fastest >= 2*time.Millisecond {
		t.Fatalf("fastest exhausted write took %v; the retries must not sleep", fastest)
	}
}

// TestCloseDrainsEverything: every write is in the pfs by the time Close
// returns, and closing twice is a no-op.
func TestCloseDrainsEverything(t *testing.T) {
	dir := t.TempDir()
	fs := pfs.New(pfs.Options{Semantics: pfs.Eventual})
	h := mustOpen(t, fs, 0, "/f")
	l, err := Open(0, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{7}, 256)
	for i := 0; i < 50; i++ {
		if _, err := l.Write(h, int64(i)*256, payload.Bytes(data), uint64(20+10*i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st := l.stats
	if st.Drained+st.WriteThrough != 50 {
		t.Fatalf("stats = %+v, want all 50 writes in the pfs", st)
	}
	dump := fs.ContentDump()
	if len(dump["/f"]) != 50*256 {
		t.Fatalf("pfs content %d bytes, want %d", len(dump["/f"]), 50*256)
	}
	// Close is idempotent.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
