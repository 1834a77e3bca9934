package experiments

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysistest"
	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/payload"
	"repro/internal/pfs"
	"repro/internal/recorder"
)

func testResults(t *testing.T) *Results {
	t.Helper()
	r, err := RunAll(TestScale())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunAllCoversRegistry(t *testing.T) {
	r := testResults(t)
	if len(r.Ordered) != 25 || len(r.ByName) != 25 {
		t.Fatalf("got %d configs", len(r.Ordered))
	}
	for _, name := range r.Ordered {
		if r.ByName[name].Trace.NumRecords() == 0 {
			t.Errorf("%s produced an empty trace", name)
		}
	}
}

func TestRenderedArtifactsNonTrivial(t *testing.T) {
	r := testResults(t)
	t3 := Table3(r)
	if !strings.Contains(t3, "FLASH-fbs") || !strings.Contains(t3, "Strided Cyclic") {
		t.Fatalf("Table3 incomplete:\n%s", t3)
	}
	t4 := Table4(r)
	if strings.Count(t4, "conflicts disappear") != 2 { // both FLASH variants
		t.Fatalf("Table4 FLASH commit result wrong:\n%s", t4)
	}
	fig1, csv := Figure1(r)
	if len(strings.Split(csv, "\n")) < 50 { // 25 configs × 2 levels + header
		t.Fatalf("Figure1 CSV too small:\n%s", csv)
	}
	if !strings.Contains(fig1, "LBANN") {
		t.Fatal("Figure1 text missing configs")
	}
	panels := Figure2(r)
	if len(panels) != 10 { // 6 CSV series + 4 SVG renderings
		t.Fatalf("Figure2 has %d panels, want 10", len(panels))
	}
	for name, content := range panels {
		if strings.HasSuffix(name, ".svg") {
			if !strings.HasPrefix(content, "<svg") {
				t.Errorf("panel %s is not an SVG", name)
			}
			continue
		}
		if len(strings.Split(content, "\n")) < 3 {
			t.Errorf("panel %s nearly empty", name)
		}
	}
	fig3 := Figure3(r)
	for _, fn := range []string{"getcwd", "unlink", "ftruncate", "lstat"} {
		if !strings.Contains(fig3, fn) {
			t.Errorf("Figure3 missing %s column", fn)
		}
	}
	// Operations the paper reports unused by every application.
	for _, fn := range []string{"rename", "chown", "utime"} {
		if strings.Contains(fig3, fn) {
			t.Errorf("Figure3 should not contain %s (unused by all apps)", fn)
		}
	}
	verdicts := VerdictsReport(r)
	if strings.Count(verdicts, "commit") != 2 { // the two FLASH variants
		t.Fatalf("verdicts: expected exactly the FLASH variants to need commit:\n%s", verdicts)
	}
}

func TestPFSBenchShapes(t *testing.T) {
	var results []BenchResult
	for _, workload := range PFSBenchWorkloads() {
		byModel := map[pfs.Semantics]BenchResult{}
		for _, sem := range pfs.AllSemantics() {
			r, err := PFSBench(workload, sem, 8, 2, 2048, 8)
			if err != nil {
				t.Fatal(err)
			}
			byModel[sem] = r
			results = append(results, r)
		}
		// The paper's motivating shape: strong semantics is the most
		// expensive model on every workload (per-op lock round trips).
		for _, sem := range []pfs.Semantics{pfs.Commit, pfs.Session, pfs.Eventual} {
			if byModel[pfs.Strong].ElapsedNS <= byModel[sem].ElapsedNS {
				t.Errorf("%s: strong (%d ns) not slower than %v (%d ns)",
					workload, byModel[pfs.Strong].ElapsedNS, sem, byModel[sem].ElapsedNS)
			}
		}
		if byModel[pfs.Strong].LockAcquires == 0 {
			t.Errorf("%s: no lock acquisitions under strong", workload)
		}
		if byModel[pfs.Commit].LockAcquires != 0 {
			t.Errorf("%s: commit semantics acquired locks", workload)
		}
		// Shared-file workloads contend; file-per-process does not.
		if workload == "nn-filepp" && byModel[pfs.Strong].LockContended != 0 {
			t.Errorf("file-per-process should have zero contended acquisitions, got %d",
				byModel[pfs.Strong].LockContended)
		}
		if workload == "n1-strided" && byModel[pfs.Strong].LockContended == 0 {
			t.Error("shared-file workload should show contended acquisitions")
		}
	}
	table := PFSBenchTable(results)
	if !strings.Contains(table, "n1-strided") || !strings.Contains(table, "eventual") {
		t.Fatalf("bench table incomplete:\n%s", table)
	}
	if _, err := PFSBench("bogus", pfs.Strong, 4, 2, 1024, 2); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestStaticArtifacts(t *testing.T) {
	if s := Table1(); !strings.Contains(s, "Lustre") {
		t.Fatal("Table1 empty")
	}
	if s := Table5(); !strings.Contains(s, "FLASH-fbs") || !strings.Contains(s, "Sedov") {
		t.Fatal("Table5 incomplete")
	}
	d := DefaultScale()
	if d.Ranks != 64 || d.PPN != 8 {
		t.Fatalf("DefaultScale = %+v", d)
	}
}

func TestMetaTableArtifact(t *testing.T) {
	r := testResults(t)
	s := MetaTable(r)
	if !strings.Contains(s, "LAMMPS-ADIOS") || !strings.Contains(s, "MACSio-Silo") {
		t.Fatalf("MetaTable incomplete:\n%s", s)
	}
	// Exactly the two configurations with cross-process metadata deps carry
	// marks.
	marked := 0
	for _, line := range strings.Split(s, "\n") {
		for _, field := range strings.Fields(line) {
			if field == "x" {
				marked++
				break
			}
		}
	}
	if marked != 2 {
		t.Fatalf("%d marked rows, want 2:\n%s", marked, s)
	}
}

// failingConfig fabricates a registry entry whose every rank errors out —
// the fixture for the no-fail-fast contract of runConfigsCtx.
func failingConfig(name string) *apps.Config {
	return &apps.Config{
		App: name, Library: "POSIX",
		Description: "synthetic always-failing configuration",
		Run: func(ctx *harness.Ctx, p apps.Params) error {
			return fmt.Errorf("%s: injected failure on rank %d", name, ctx.Rank)
		},
	}
}

func okConfig(name string) *apps.Config {
	return &apps.Config{
		App: name, Library: "POSIX",
		Description: "synthetic trivial configuration",
		Run: func(ctx *harness.Ctx, p apps.Params) error {
			fd, err := ctx.OS.Open("/ok-"+name, recorder.OCreat|recorder.OWronly, 0o644)
			if err != nil {
				return err
			}
			if _, err := ctx.OS.Pwrite(fd, payload.Bytes(make([]byte, 64)), int64(ctx.Rank)*64); err != nil {
				return err
			}
			return ctx.OS.Close(fd)
		},
	}
}

// TestRunConfigsCollectsAllErrors pins the fail-fast fix: one failing
// configuration must not abort the sweep, and *every* failure must be
// reported, not just the first.
func TestRunConfigsCollectsAllErrors(t *testing.T) {
	cfgs := []*apps.Config{
		failingConfig("FailAlpha"),
		okConfig("OkOne"),
		failingConfig("FailBeta"),
		okConfig("OkTwo"),
	}
	for _, workers := range []int{1, 3} {
		r, err := runConfigsCtx(context.Background(), cfgs, TestScale(), SweepOptions{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: expected a joined error", workers)
		}
		for _, want := range []string{"FailAlpha: injected failure", "FailBeta: injected failure"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("workers=%d: joined error missing %q:\n%v", workers, want, err)
			}
		}
		if len(r.Errs) != 2 || r.Errs["FailAlpha"] == nil || r.Errs["FailBeta"] == nil {
			t.Fatalf("workers=%d: Errs = %v", workers, r.Errs)
		}
		// Survivors keep registry order and carry real traces.
		if len(r.Ordered) != 2 || r.Ordered[0] != "OkOne" || r.Ordered[1] != "OkTwo" {
			t.Fatalf("workers=%d: Ordered = %v", workers, r.Ordered)
		}
		for _, name := range r.Ordered {
			if r.ByName[name].Trace.NumRecords() == 0 {
				t.Errorf("workers=%d: %s has an empty trace", workers, name)
			}
		}
	}
}

// TestRunAllWorkersMatchesSerial checks that the parallel registry sweep
// produces byte-identical traces to the serial one (each run is a
// self-contained deterministic simulation) and identical analyses, which
// now run on the sweep's pool.
func TestRunAllWorkersMatchesSerial(t *testing.T) {
	serial, err := RunAllCtx(context.Background(), TestScale(), SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunAllCtx(context.Background(), TestScale(), SweepOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Ordered, par.Ordered) {
		t.Fatalf("Ordered differs:\n%v\n%v", serial.Ordered, par.Ordered)
	}
	for _, name := range serial.Ordered {
		if !reflect.DeepEqual(serial.ByName[name].Trace, par.ByName[name].Trace) {
			t.Errorf("%s: parallel trace differs from serial", name)
		}
		analysistest.RequireEqual(t, name, serial.Analyses[name], par.Analyses[name])
	}
}
