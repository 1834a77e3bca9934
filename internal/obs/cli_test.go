package obs

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
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

// TestCLIMetricsTouchedOnly: the -metrics file holds only the instruments
// the run touched, while Snapshot keeps the full registered namespace.
func TestCLIMetricsTouchedOnly(t *testing.T) {
	r := Default()
	c, idle := r.Counter("test.cli.touched"), r.Counter("test.cli.idle")
	g, h := r.Gauge("test.cli.gauge"), r.Histogram("test.cli.hist")
	r.Histogram("test.cli.idle_hist")
	path := filepath.Join(t.TempDir(), "metrics.json")
	f := CLIFlags{Metrics: path}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	c.Add(3)
	g.Set(2)
	h.Observe(0) // a zero-valued observation still counts as a touch
	idle.Add(0)
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	want := Snapshot{
		Counters:   map[string]int64{"test.cli.touched": 3},
		Gauges:     map[string]int64{"test.cli.gauge": 2},
		Histograms: map[string]HistogramSnapshot{"test.cli.hist": {Count: 1, Zero: 1}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("-metrics file = %+v, want %+v", got, want)
	}
	full := r.Snapshot()
	if _, ok := full.Counters["test.cli.idle"]; !ok {
		t.Error("Snapshot dropped an untouched counter")
	}
	if _, ok := full.Histograms["test.cli.idle_hist"]; !ok {
		t.Error("Snapshot dropped an untouched histogram")
	}
}
