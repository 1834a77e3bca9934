package obs

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// readGzip returns the decompressed contents of a profile file, failing the
// test unless the file is a non-empty gzip stream (the pprof file format).
func readGzip(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("%s is not gzip: %v", path, err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(body) == 0 {
		t.Fatalf("%s holds an empty profile", path)
	}
	return raw
}

// TestCLIPprofFile drives -pprof FILE through CLIFlags: Start begins a CPU
// profile in FILE, Flush ends it and writes the allocation profile to
// FILE.allocs, and a second Flush leaves both files as they are.
func TestCLIPprofFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f := CLIFlags{Pprof: path}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	cpu := readGzip(t, path)
	allocs := readGzip(t, path+".allocs")

	if err := f.Flush(); err != nil {
		t.Fatalf("second Flush: %v", err)
	}
	if again, _ := os.ReadFile(path); !bytes.Equal(again, cpu) {
		t.Error("second Flush rewrote the CPU profile")
	}
	if again, _ := os.ReadFile(path + ".allocs"); !bytes.Equal(again, allocs) {
		t.Error("second Flush rewrote the allocation profile")
	}
}

// TestCLIPprofUncreatable: a -pprof path that cannot be created fails at
// Start, before any work, and leaves no CPU profile running.
func TestCLIPprofUncreatable(t *testing.T) {
	dir := t.TempDir()
	bad := CLIFlags{Pprof: filepath.Join(dir, "missing", "cpu.pprof")}
	if err := bad.Start(); err == nil {
		bad.Flush()
		t.Fatal("Start succeeded on a path in a missing directory")
	}
	if err := bad.Flush(); err != nil {
		t.Errorf("Flush after a failed Start: %v", err)
	}
	if _, err := os.Stat(bad.Pprof + ".allocs"); !os.IsNotExist(err) {
		t.Errorf("Flush after a failed Start wrote an allocation profile (stat: %v)", err)
	}
	good := CLIFlags{Pprof: filepath.Join(dir, "cpu.pprof")}
	if err := good.Start(); err != nil {
		t.Fatalf("Start after a failed Start: %v", err)
	}
	if err := good.Flush(); err != nil {
		t.Fatal(err)
	}
}
