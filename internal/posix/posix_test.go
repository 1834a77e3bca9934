package posix

import (
	"bytes"
	"testing"

	"repro/internal/payload"
	"repro/internal/pfs"
	"repro/internal/recorder"
	"repro/internal/sim"
)

func newProc(t *testing.T, sem pfs.Semantics) (*Proc, *recorder.RankTracer) {
	t.Helper()
	fs := pfs.New(pfs.Options{Semantics: sem})
	tracer := recorder.NewRankTracer(0)
	p := NewProc(0, fs.NewClient(0), sim.NewClock(0, 0), tracer)
	return p, tracer
}

// records takes a tracer's records, in emission order.
func records(tr *recorder.RankTracer) []recorder.Record {
	tracers := make([]*recorder.RankTracer, tr.Rank()+1)
	for r := range tracers {
		tracers[r] = recorder.NewRankTracer(r)
	}
	tracers[tr.Rank()] = tr
	trace, err := recorder.TraceOf(recorder.Meta{}, tracers)
	if err != nil {
		panic(err)
	}
	return trace.Records(tr.Rank())
}

func twoProcs(t *testing.T, sem pfs.Semantics) (*Proc, *Proc) {
	t.Helper()
	fs := pfs.New(pfs.Options{Semantics: sem})
	a := NewProc(0, fs.NewClient(0), sim.NewClock(0, 0), recorder.NewRankTracer(0))
	b := NewProc(1, fs.NewClient(1), sim.NewClock(0, 0), recorder.NewRankTracer(1))
	return a, b
}

func TestWriteReadRoundTrip(t *testing.T) {
	p, _ := newProc(t, pfs.Strong)
	fd, err := p.Open("/f", recorder.OCreat|recorder.ORdwr, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := p.Write(fd, payload.Bytes([]byte("hello world"))); err != nil || n != 11 {
		t.Fatalf("write = %d, %v", n, err)
	}
	if _, err := p.Lseek(fd, 0, recorder.SeekSet); err != nil {
		t.Fatal(err)
	}
	got, err := bytesOf(p.Read(fd, 11))
	if err != nil || !bytes.Equal(got, []byte("hello world")) {
		t.Fatalf("read = %q, %v", got, err)
	}
	if err := p.Close(fd); err != nil {
		t.Fatal(err)
	}
}

func TestOffsetTracking(t *testing.T) {
	p, _ := newProc(t, pfs.Strong)
	fd, _ := p.Open("/f", recorder.OCreat|recorder.ORdwr, 0o644)
	p.Write(fd, payload.Bytes([]byte("aaaa")))
	p.Write(fd, payload.Bytes([]byte("bbbb"))) // sequential writes advance the offset
	off, _ := p.Offset(fd)
	if off != 8 {
		t.Fatalf("offset after two writes = %d, want 8", off)
	}
	p.Lseek(fd, 0, recorder.SeekSet)
	got, _ := bytesOf(p.Read(fd, 8))
	if !bytes.Equal(got, []byte("aaaabbbb")) {
		t.Fatalf("sequential writes produced %q", got)
	}
}

func TestPwritePreadDoNotMoveOffset(t *testing.T) {
	p, _ := newProc(t, pfs.Strong)
	fd, _ := p.Open("/f", recorder.OCreat|recorder.ORdwr, 0o644)
	p.Write(fd, payload.Bytes([]byte("xxxx")))
	if _, err := p.Pwrite(fd, payload.Bytes([]byte("ZZ")), 1); err != nil {
		t.Fatal(err)
	}
	off, _ := p.Offset(fd)
	if off != 4 {
		t.Fatalf("pwrite moved offset to %d", off)
	}
	got, err := bytesOf(p.Pread(fd, 4, 0))
	if err != nil || !bytes.Equal(got, []byte("xZZx")) {
		t.Fatalf("pread = %q, %v", got, err)
	}
	if off, _ = p.Offset(fd); off != 4 {
		t.Fatalf("pread moved offset to %d", off)
	}
}

func TestLseekWhence(t *testing.T) {
	p, _ := newProc(t, pfs.Strong)
	fd, _ := p.Open("/f", recorder.OCreat|recorder.ORdwr, 0o644)
	p.Write(fd, payload.Bytes(make([]byte, 100)))
	if off, _ := p.Lseek(fd, 10, recorder.SeekSet); off != 10 {
		t.Fatalf("SEEK_SET -> %d", off)
	}
	if off, _ := p.Lseek(fd, 5, recorder.SeekCur); off != 15 {
		t.Fatalf("SEEK_CUR -> %d", off)
	}
	if off, _ := p.Lseek(fd, -20, recorder.SeekEnd); off != 80 {
		t.Fatalf("SEEK_END -> %d", off)
	}
	if _, err := p.Lseek(fd, -200, recorder.SeekCur); err == nil {
		t.Fatal("negative resulting offset should fail")
	}
	if _, err := p.Lseek(fd, 0, 9); err == nil {
		t.Fatal("bad whence should fail")
	}
}

func TestAppendMode(t *testing.T) {
	p, _ := newProc(t, pfs.Strong)
	fd, _ := p.Open("/log", recorder.OCreat|recorder.OWronly, 0o644)
	p.Write(fd, payload.Bytes([]byte("first")))
	p.Close(fd)
	fd2, _ := p.Open("/log", recorder.OWronly|recorder.OAppend, 0)
	p.Write(fd2, payload.Bytes([]byte("+second")))
	p.Close(fd2)
	fd3, _ := p.Open("/log", recorder.ORdonly, 0)
	got, _ := bytesOf(p.Read(fd3, 100))
	if string(got) != "first+second" {
		t.Fatalf("append produced %q", got)
	}
}

func TestStdioStream(t *testing.T) {
	p, _ := newProc(t, pfs.Strong)
	fd, err := p.Fopen("/out.txt", "w")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := p.Fwrite(fd, payload.Bytes([]byte("abcdef")), 2, 3); err != nil || n != 3 {
		t.Fatalf("fwrite = %d, %v", n, err)
	}
	if err := p.Fflush(fd); err != nil {
		t.Fatal(err)
	}
	if pos, _ := p.Ftell(fd); pos != 6 {
		t.Fatalf("ftell = %d", pos)
	}
	if err := p.Fclose(fd); err != nil {
		t.Fatal(err)
	}
	rd, _ := p.Fopen("/out.txt", "r")
	got, err := bytesOf(p.Fread(rd, 1, 6))
	if err != nil || string(got) != "abcdef" {
		t.Fatalf("fread = %q, %v", got, err)
	}
	p.Fclose(rd)
}

func TestFopenModes(t *testing.T) {
	for mode, want := range map[string]int{
		"r":  recorder.ORdonly,
		"r+": recorder.ORdwr,
		"w":  recorder.OWronly | recorder.OCreat | recorder.OTrunc,
		"w+": recorder.ORdwr | recorder.OCreat | recorder.OTrunc,
		"a":  recorder.OWronly | recorder.OCreat | recorder.OAppend,
		"a+": recorder.ORdwr | recorder.OCreat | recorder.OAppend,
		"rb": recorder.ORdonly,
	} {
		got, err := fopenFlags(mode)
		if err != nil || got != want {
			t.Errorf("fopenFlags(%q) = %#x, %v; want %#x", mode, got, err, want)
		}
	}
	if _, err := fopenFlags("q"); err == nil {
		t.Error("bad mode accepted")
	}
}

func TestFwriteSizeMismatch(t *testing.T) {
	p, _ := newProc(t, pfs.Strong)
	fd, _ := p.Fopen("/f", "w")
	if _, err := p.Fwrite(fd, payload.Bytes([]byte("abc")), 2, 2); err == nil {
		t.Fatal("size*nmemb != len(data) should fail")
	}
}

func TestBadFDErrors(t *testing.T) {
	p, _ := newProc(t, pfs.Strong)
	if _, err := p.Read(99, 1); err == nil {
		t.Fatal("read on bad fd should fail")
	}
	if _, err := p.Write(99, payload.Bytes([]byte("x"))); err == nil {
		t.Fatal("write on bad fd should fail")
	}
	if err := p.Close(99); err == nil {
		t.Fatal("close on bad fd should fail")
	}
	if err := p.Fsync(99); err == nil {
		t.Fatal("fsync on bad fd should fail")
	}
}

func TestMetadataOpsEmitRecordsAndWork(t *testing.T) {
	p, tr := newProc(t, pfs.Strong)
	if err := p.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	fd, _ := p.Open("/d/f", recorder.OCreat|recorder.OWronly, 0o644)
	p.Write(fd, payload.Bytes([]byte("1234")))
	p.Close(fd)
	info, err := p.Stat("/d/f")
	if err != nil || info.Size != 4 {
		t.Fatalf("stat = %+v, %v", info, err)
	}
	if _, err := p.Lstat("/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := p.Access("/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := p.Access("/d/missing"); err == nil {
		t.Fatal("access of missing file should fail")
	}
	if err := p.Rename("/d/f", "/d/g"); err != nil {
		t.Fatal(err)
	}
	if err := p.Unlink("/d/g"); err != nil {
		t.Fatal(err)
	}
	if got := p.Getcwd(); got != "/" {
		t.Fatalf("getcwd = %q", got)
	}
	if err := p.Chdir("/d"); err != nil {
		t.Fatal(err)
	}
	if got := p.Getcwd(); got != "/d" {
		t.Fatalf("getcwd after chdir = %q", got)
	}
	// Relative path resolution against cwd.
	fd2, err := p.Open("rel", recorder.OCreat|recorder.OWronly, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	p.Close(fd2)
	if _, err := p.Stat("/d/rel"); err != nil {
		t.Fatal("relative open did not resolve against cwd")
	}

	seen := map[recorder.Func]bool{}
	for _, r := range records(tr) {
		seen[r.Func] = true
	}
	for _, fn := range []recorder.Func{
		recorder.FuncMkdir, recorder.FuncStat, recorder.FuncLstat,
		recorder.FuncAccess, recorder.FuncRename, recorder.FuncUnlink,
		recorder.FuncGetcwd, recorder.FuncChdir,
	} {
		if !seen[fn] {
			t.Errorf("no trace record for %v", fn)
		}
	}
}

func TestFstatFtruncateDup(t *testing.T) {
	p, _ := newProc(t, pfs.Strong)
	fd, _ := p.Open("/f", recorder.OCreat|recorder.ORdwr, 0o644)
	p.Write(fd, payload.Bytes(make([]byte, 50)))
	info, err := p.Fstat(fd)
	if err != nil || info.Size != 50 {
		t.Fatalf("fstat = %+v, %v", info, err)
	}
	if err := p.Ftruncate(fd, 10); err != nil {
		t.Fatal(err)
	}
	if info, _ = p.Fstat(fd); info.Size != 10 {
		t.Fatalf("size after ftruncate = %d", info.Size)
	}
	dup, err := p.Dup(fd)
	if err != nil {
		t.Fatal(err)
	}
	if pth, _ := p.PathOf(dup); pth != "/f" {
		t.Fatalf("dup path = %q", pth)
	}
	if err := p.Fcntl(fd, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Fileno(fd); err != nil {
		t.Fatal(err)
	}
	if got := p.Umask(0o077); got != 0o022 {
		t.Fatalf("umask returned %d", got)
	}
}

func TestTruncateByPath(t *testing.T) {
	p, _ := newProc(t, pfs.Strong)
	fd, _ := p.Open("/f", recorder.OCreat|recorder.OWronly, 0o644)
	p.Write(fd, payload.Bytes(make([]byte, 100)))
	p.Close(fd)
	if err := p.Truncate("/f", 25); err != nil {
		t.Fatal(err)
	}
	info, _ := p.Stat("/f")
	if info.Size != 25 {
		t.Fatalf("size after truncate = %d", info.Size)
	}
}

func TestClockAdvancesAndRecordsOrdered(t *testing.T) {
	p, tr := newProc(t, pfs.Strong)
	fd, _ := p.Open("/f", recorder.OCreat|recorder.OWronly, 0o644)
	p.Write(fd, payload.Bytes(make([]byte, 1000)))
	p.Fsync(fd)
	p.Close(fd)
	if p.Clock().Now() == 0 {
		t.Fatal("clock did not advance")
	}
	recs := records(tr)
	var prev uint64
	for i, r := range recs {
		// Sequential calls: each starts after the previous one ended.
		if r.TStart < prev {
			t.Fatalf("record %d starts before record %d ended", i, i-1)
		}
		if r.TEnd < r.TStart {
			t.Fatalf("record %d TEnd < TStart", i)
		}
		prev = r.TEnd
	}
	// open, write, fsync, close
	if len(recs) != 4 {
		t.Fatalf("expected 4 records, got %d", len(recs))
	}
}

func TestFsyncPublishesUnderCommitSemantics(t *testing.T) {
	a, b := twoProcs(t, pfs.Commit)
	fda, _ := a.Open("/shared", recorder.OCreat|recorder.OWronly, 0o644)
	a.Write(fda, payload.Bytes([]byte("data")))
	fdb, _ := b.Open("/shared", recorder.ORdonly, 0)
	if got, _ := bytesOf(b.Read(fdb, 4)); len(got) != 0 {
		t.Fatalf("uncommitted data visible: %q", got)
	}
	if err := a.Fsync(fda); err != nil {
		t.Fatal(err)
	}
	b.Lseek(fdb, 0, recorder.SeekSet)
	if got, _ := bytesOf(b.Read(fdb, 4)); string(got) != "data" {
		t.Fatalf("committed data not visible: %q", got)
	}
}

func TestSessionSemanticsThroughPosix(t *testing.T) {
	a, b := twoProcs(t, pfs.Session)
	fda, _ := a.Open("/s", recorder.OCreat|recorder.OWronly, 0o644)
	a.Write(fda, payload.Bytes([]byte("xyz")))
	a.Close(fda)
	fdb, _ := b.Open("/s", recorder.ORdonly, 0)
	if got, _ := bytesOf(b.Read(fdb, 3)); string(got) != "xyz" {
		t.Fatalf("close-to-open read = %q", got)
	}
}

func TestOpenRecordsArgs(t *testing.T) {
	p, tr := newProc(t, pfs.Strong)
	fd, _ := p.Open("/f", recorder.OCreat|recorder.OWronly, 0o600)
	rec := records(tr)[0]
	if rec.Func != recorder.FuncOpen || rec.Path != "/f" {
		t.Fatalf("open record = %v", rec)
	}
	if rec.Arg(0) != int64(recorder.OCreat|recorder.OWronly) || rec.Arg(2) != int64(fd) {
		t.Fatalf("open args = %v", rec.Args)
	}
}

// bytesOf passes a read's results through with the payload's bytes.
func bytesOf(data payload.P, err error) ([]byte, error) { return data.Materialize(), err }
