package posix

import (
	"testing"

	"repro/internal/payload"
	"repro/internal/pfs"
	"repro/internal/recorder"
	"repro/internal/sim"
)

func TestCreatAndRemove(t *testing.T) {
	p, tr := newProc(t, pfs.Strong)
	fd, err := p.Creat("/c.dat", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write(fd, payload.Bytes([]byte("x"))); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(fd); err != nil {
		t.Fatal(err)
	}
	if err := p.Remove("/c.dat"); err != nil {
		t.Fatal(err)
	}
	if err := p.Remove("/c.dat"); err == nil {
		t.Fatal("remove of missing file should fail")
	}
	seen := map[recorder.Func]bool{}
	for _, r := range records(tr) {
		seen[r.Func] = true
	}
	if !seen[recorder.FuncCreat] || !seen[recorder.FuncRemove] {
		t.Fatal("creat/remove records missing")
	}
}

func TestDirectoryWalkAndMmap(t *testing.T) {
	p, tr := newProc(t, pfs.Strong)
	if err := p.Opendir("/d"); err != nil {
		t.Fatal(err)
	}
	p.Readdir("/d")
	p.Readdir("/d")
	p.Closedir("/d")
	fd, _ := p.Open("/m", recorder.OCreat|recorder.ORdwr, 0o644)
	p.Write(fd, payload.Bytes(make([]byte, 64)))
	if err := p.Mmap(fd, 64); err != nil {
		t.Fatal(err)
	}
	if err := p.Mmap(99, 64); err == nil {
		t.Fatal("mmap of bad fd should fail")
	}
	counts := map[recorder.Func]int{}
	for _, r := range records(tr) {
		counts[r.Func]++
	}
	if counts[recorder.FuncOpendir] != 1 || counts[recorder.FuncReaddir] != 2 ||
		counts[recorder.FuncClosedir] != 1 || counts[recorder.FuncMmap] != 2 {
		t.Fatalf("dir/mmap records: %v", counts)
	}
}

func TestFdatasyncPublishes(t *testing.T) {
	a, b := twoProcs(t, pfs.Commit)
	fda, _ := a.Open("/fd", recorder.OCreat|recorder.OWronly, 0o644)
	a.Write(fda, payload.Bytes([]byte("data")))
	if err := a.Fdatasync(fda); err != nil {
		t.Fatal(err)
	}
	fdb, _ := b.Open("/fd", recorder.ORdonly, 0)
	if got, _ := bytesOf(b.Read(fdb, 4)); string(got) != "data" {
		t.Fatalf("fdatasync did not publish: %q", got)
	}
	if err := a.Fdatasync(999); err == nil {
		t.Fatal("fdatasync of bad fd should fail")
	}
}

func TestFseekStream(t *testing.T) {
	p, _ := newProc(t, pfs.Strong)
	fd, _ := p.Fopen("/s", "w+")
	p.Fwrite(fd, payload.Bytes(make([]byte, 100)), 1, 100)
	if off, err := p.Fseek(fd, 25, recorder.SeekSet); err != nil || off != 25 {
		t.Fatalf("fseek = %d, %v", off, err)
	}
	got, err := bytesOf(p.Fread(fd, 5, 5))
	if err != nil || len(got) != 25 {
		t.Fatalf("fread after fseek = %d bytes, %v", len(got), err)
	}
	if _, err := p.Fread(999, 1, 1); err == nil {
		t.Fatal("fread of bad fd should fail")
	}
	if _, err := p.Ftell(999); err == nil {
		t.Fatal("ftell of bad fd should fail")
	}
	p.Fclose(fd)
}

func TestPositionalBadFD(t *testing.T) {
	p, _ := newProc(t, pfs.Strong)
	if _, err := p.Pwrite(42, payload.Bytes([]byte("x")), 0); err == nil {
		t.Fatal("pwrite bad fd")
	}
	if _, err := p.Pread(42, 1, 0); err == nil {
		t.Fatal("pread bad fd")
	}
	if _, err := p.Lseek(42, 0, recorder.SeekSet); err == nil {
		t.Fatal("lseek bad fd")
	}
	if err := p.Ftruncate(42, 0); err == nil {
		t.Fatal("ftruncate bad fd")
	}
	if _, err := p.Fstat(42); err == nil {
		t.Fatal("fstat bad fd")
	}
	if _, err := p.Dup(42); err == nil {
		t.Fatal("dup bad fd")
	}
	if _, err := p.PathOf(42); err == nil {
		t.Fatal("PathOf bad fd")
	}
	if _, err := p.Offset(42); err == nil {
		t.Fatal("Offset bad fd")
	}
	if _, err := p.Fileno(42); err == nil {
		t.Fatal("fileno bad fd")
	}
}

func TestJitterBoundsAndRank(t *testing.T) {
	fs := pfs.New(pfs.Options{Semantics: pfs.Strong})
	clock := sim.NewClock(0, 0)
	p := NewProc(3, fs.NewClient(3), clock, recorder.NewRankTracer(3))
	if p.Rank() != 3 {
		t.Fatal("Rank accessor")
	}
	p.SetJitter(sim.NewRNG(1))
	fd, _ := p.Open("/j", recorder.OCreat|recorder.OWronly, 0o644)
	before := clock.Now()
	p.Write(fd, payload.Bytes(make([]byte, 1000)))
	cost := clock.Now() - before
	// Strong semantics: client I/O cost plus the lock round trip.
	base := sim.IOCost(1000) + sim.LockRPC
	if cost < base || cost > base+base/4+1 {
		t.Fatalf("jittered cost %d outside [%d, %d]", cost, base, base+base/4+1)
	}
	// Writes to a pfs error path still record and propagate.
	p.Close(fd)
	if _, err := p.Write(fd, payload.Bytes([]byte("x"))); err == nil {
		t.Fatal("write after close should fail")
	}
}
