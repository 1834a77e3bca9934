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

	"repro/internal/pfs"
	"repro/internal/storage"
)

func mustOpen(t *testing.T, fs *pfs.FileSystem, rank int, path string) *pfs.Handle {
	t.Helper()
	c := fs.NewClient(rank, 0)
	h, _, err := c.Open(path, pfs.OCreat|pfs.ORdwr, 10)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// noDrainLog builds a Log whose background drainer never runs, so queue
// state between operations is fully deterministic. Tests drive draining
// through the foreground barrier paths.
func noDrainLog(t *testing.T, opts Options) *Log {
	t.Helper()
	opts = opts.withDefaults()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	f, err := os.OpenFile(filepath.Join(opts.Dir, logName(0)), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	l := &Log{rank: 0, opts: opts, dir: opts.Dir, file: f, done: make(chan struct{})}
	l.cond = sync.NewCond(&l.mu)
	close(l.done)
	l.stopped = false
	return l
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.wal")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
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
		n, err := appendRecord(f, Record{Path: "/t", Off: int64(i) * 8, Now: uint64(10 * i), Data: []byte("payload!")}, true)
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
	if _, err := l.Write(h, 0, []byte("first"), 20); err != nil {
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
	if got := l2.Stats().Salvaged; got != 1 {
		t.Fatalf("salvaged %d records, want 1", got)
	}
	fs2 := pfs.New(pfs.Options{Semantics: pfs.Strong})
	h2 := mustOpen(t, fs2, 0, "/f")
	if _, err := l2.Write(h2, 5, []byte("second"), 30); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	recs, stats, err := RecoverDirOn(storage.OS(), dir)
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
	if _, err := l.Write(mustOpen(t, fs, 0, "/f"), 0, []byte("acked"), 20); err != nil {
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
	recs, stats, err := RecoverDirOn(storage.OS(), dir)
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

func TestWriteAcksAndBarrierDrains(t *testing.T) {
	fs := pfs.New(pfs.Options{Semantics: pfs.Strong})
	h := mustOpen(t, fs, 0, "/f")
	l := noDrainLog(t, Options{})

	ackCost, err := l.Write(h, 0, bytes.Repeat([]byte{1}, 4096), 20)
	if err != nil {
		t.Fatal(err)
	}
	directCost, err := h.Write(8192, bytes.Repeat([]byte{2}, 4096), 30)
	if err != nil {
		t.Fatal(err)
	}
	if ackCost >= directCost {
		t.Fatalf("ack cost %d not cheaper than direct pfs write %d", ackCost, directCost)
	}
	if got := l.Stats(); got.Acked != 1 || got.Drained != 0 {
		t.Fatalf("stats = %+v, want 1 acked, 0 drained", got)
	}
	// Read-your-writes through the barrier: the read must see the queued
	// write drained first.
	data, _, err := l.Read(h, 0, 4, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte{1, 1, 1, 1}) {
		t.Fatalf("read %v after barrier, want drained write visible", data)
	}
	if got := l.Stats(); got.Drained != 1 {
		t.Fatalf("stats = %+v, want 1 drained", got)
	}
}

func TestWatermarkDegradesToWriteThrough(t *testing.T) {
	fs := pfs.New(pfs.Options{Semantics: pfs.Commit})
	h := mustOpen(t, fs, 0, "/f")
	l := noDrainLog(t, Options{Watermark: 2})

	for i := 0; i < 2; i++ {
		if _, err := l.Write(h, int64(i)*4, []byte("abcd"), uint64(20+10*i)); err != nil {
			t.Fatal(err)
		}
	}
	// Queue is at the watermark: the next write must drain and write through.
	if _, err := l.Write(h, 8, []byte("abcd"), 50); err != nil {
		t.Fatal(err)
	}
	got := l.Stats()
	if got.Acked != 2 || got.WriteThrough != 1 || got.Drained != 2 || got.QueuePeak != 2 {
		t.Fatalf("stats = %+v, want acked=2 writethrough=1 drained=2 peak=2", got)
	}
	if l.Degraded() {
		t.Fatal("watermark pressure must not stick the log in degraded mode")
	}
	// Pressure released: the next write acks from the log again.
	if _, err := l.Write(h, 12, []byte("abcd"), 60); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats(); got.Acked != 3 {
		t.Fatalf("stats = %+v, want acked=3 after pressure release", got)
	}
}

func TestLogFailureDegradesSticky(t *testing.T) {
	fs := pfs.New(pfs.Options{Semantics: pfs.Strong})
	h := mustOpen(t, fs, 0, "/f")
	l := noDrainLog(t, Options{})

	// Kill the log disk out from under the Log.
	l.file.Close()
	for i := 0; i < 2; i++ {
		if _, err := l.Write(h, int64(i)*4, []byte("data"), uint64(20+10*i)); err != nil {
			t.Fatalf("write %d must survive log failure via write-through: %v", i, err)
		}
	}
	got := l.Stats()
	if !l.Degraded() || got.WriteThrough != 2 || got.Acked != 0 {
		t.Fatalf("degraded=%v stats=%+v, want sticky write-through", l.Degraded(), got)
	}
	data, _, err := h.Read(0, 8, 100)
	if err != nil || !bytes.Equal(data, []byte("datadata")) {
		t.Fatalf("read %q, %v; write-through writes must land", data, err)
	}
}

func TestDeferredDrainErrorSurfaces(t *testing.T) {
	fs := pfs.New(pfs.Options{Semantics: pfs.Strong})
	c := fs.NewClient(0, 0)
	h, _, err := c.Open("/f", pfs.OCreat|pfs.ORdwr, 10)
	if err != nil {
		t.Fatal(err)
	}
	l := noDrainLog(t, Options{})
	if _, err := l.Write(h, 0, []byte("doomed"), 20); err != nil {
		t.Fatal(err)
	}
	c.Crash() // the queued record can now never drain
	if _, _, err := l.Read(h, 0, 6, 30); !errors.Is(err, pfs.ErrCrashed) {
		t.Fatalf("barrier error = %v, want ErrCrashed from the failed drain", err)
	}
	// The error was surfaced once; the barrier itself is clean afterwards.
	if err := l.Barrier(); err != nil {
		t.Fatalf("second barrier = %v, want nil (error already surfaced, record dropped)", err)
	}
}

type transientInjector struct {
	mu        sync.Mutex
	remaining int // fail this many write intercepts, then pass everything
}

func (ti *transientInjector) Intercept(op pfs.OpInfo) pfs.FaultAction {
	if op.Kind != pfs.OpWrite {
		return pfs.FaultAction{}
	}
	ti.mu.Lock()
	defer ti.mu.Unlock()
	if ti.remaining > 0 {
		ti.remaining--
		return pfs.FaultAction{Transient: true}
	}
	return pfs.FaultAction{}
}

func TestDrainRetriesTransientWithBackoff(t *testing.T) {
	// MaxRetries < 0 disables the client's own retry loop, so every
	// injected transient fault surfaces to the WAL drain loop directly.
	fs := pfs.New(pfs.Options{Semantics: pfs.Strong, Retry: pfs.RetryPolicy{MaxRetries: -1}})
	h := mustOpen(t, fs, 0, "/f")
	fs.SetInjector(&transientInjector{remaining: 1 << 30})
	l := noDrainLog(t, Options{MaxRetries: 3, Retry: storage.Backoff{BaseNS: 1000, CapNS: 10_000}})

	if _, err := l.Write(h, 0, []byte("x"), 20); err != nil {
		t.Fatal(err)
	}
	err := l.Barrier()
	if !errors.Is(err, pfs.ErrTransient) {
		t.Fatalf("barrier = %v, want ErrTransient after retries exhausted", err)
	}
	if got := l.Stats(); got.Retries != 3 || got.Drained != 0 {
		t.Fatalf("stats = %+v, want 3 retries, 0 drained", got)
	}

	// Now let the fault clear after two failed attempts: the drain succeeds.
	fs.SetInjector(&transientInjector{remaining: 2})
	if _, err := l.Write(h, 0, []byte("y"), 30); err != nil {
		t.Fatal(err)
	}
	if err := l.Barrier(); err != nil {
		t.Fatalf("barrier after fault cleared = %v", err)
	}
	if got := l.Stats(); got.Drained != 1 {
		t.Fatalf("stats = %+v, want the retried record drained", got)
	}
}

func TestCloseDrainsEverything(t *testing.T) {
	dir := t.TempDir()
	fs := pfs.New(pfs.Options{Semantics: pfs.Eventual})
	h := mustOpen(t, fs, 0, "/f")
	l, err := Open(0, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{7}, 256)
	for i := 0; i < 50; i++ {
		if _, err := l.Write(h, int64(i)*256, payload, uint64(20+10*i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
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

func TestBackoffJitterBounds(t *testing.T) {
	b := storage.Backoff{BaseNS: 100_000, Multiplier: 2, CapNS: 1 << 30, Seed: 42}
	nominal := uint64(100_000)
	for attempt := 0; attempt < 20; attempt++ {
		d := b.Delay(attempt)
		lo, hi := nominal-nominal/4, nominal+nominal/4
		if d < lo || d > hi {
			t.Fatalf("attempt %d: delay %d outside documented ±25%% bounds [%d, %d] of nominal %d",
				attempt, d, lo, hi, nominal)
		}
		if nominal < (1<<30)/2 {
			nominal *= 2
		} else {
			nominal = 1 << 30
		}
	}
	// Pure function of (Seed, attempt): identical across calls and goroutines.
	for attempt := 0; attempt < 8; attempt++ {
		want := b.Delay(attempt)
		var wg sync.WaitGroup
		got := make([]uint64, 8)
		for i := range got {
			wg.Add(1)
			go func(i, attempt int) {
				defer wg.Done()
				got[i] = b.Delay(attempt)
			}(i, attempt)
		}
		wg.Wait()
		for i, g := range got {
			if g != want {
				t.Fatalf("concurrent Delay(%d) call %d = %d, want %d", attempt, i, g, want)
			}
		}
	}
}
