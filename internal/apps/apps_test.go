package apps

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/pfs"
	"repro/internal/recorder"
)

const (
	testRanks = 16
	testPPN   = 2 // 8 nodes, so FLASH/VPIC's 6 aggregators fit
)

func execute(t *testing.T, name string, opts Options) *harness.Result {
	t.Helper()
	cfg, ok := Lookup(name)
	if !ok {
		t.Fatalf("no config named %q", name)
	}
	if opts.Ranks == 0 {
		opts.Ranks = testRanks
		opts.PPN = testPPN
	}
	res, err := Execute(cfg, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := res.Err(); err != nil {
		t.Fatalf("%s: rank failure: %v", name, err)
	}
	return res
}

// extracted is the trace's serial extraction.
func extracted(t *testing.T, tr *recorder.Trace) []*core.FileAccesses {
	t.Helper()
	fas, err := core.ExtractSharedCtx(context.Background(), tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	return fas
}

// conflicts detects one model's conflicts over the trace.
func conflicts(t *testing.T, tr *recorder.Trace, model pfs.Semantics) (map[string][]core.Conflict, core.ConflictSignature) {
	t.Helper()
	return core.ConflictsOverFiles(extracted(t, tr), model)
}

func TestRegistryComplete(t *testing.T) {
	names := Names()
	if len(names) != 25 {
		t.Fatalf("registry has %d configs, want 25: %v", len(names), names)
	}
	apps := map[string]bool{}
	for _, c := range Registry() {
		apps[c.App] = true
		if c.Description == "" {
			t.Errorf("%s has no Table 5 description", c.Name())
		}
		if c.Run == nil {
			t.Errorf("%s has no Run body", c.Name())
		}
	}
	if len(apps) != 17 {
		t.Fatalf("registry covers %d applications, want 17: %v", len(apps), apps)
	}
	if _, ok := Lookup("FLASH-fbs"); !ok {
		t.Fatal("Lookup(FLASH-fbs) failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup of unknown name succeeded")
	}
}

// table4Expected is Table 4 of the paper: the conflict signature of every
// configuration under session semantics. Configurations not listed are
// conflict-free.
var table4Expected = map[string]core.ConflictSignature{
	"FLASH-fbs":     {WAWSame: true, WAWDiff: true},
	"FLASH-nofbs":   {WAWSame: true, WAWDiff: true},
	"ENZO-HDF5":     {RAWSame: true},
	"NWChem":        {WAWSame: true, RAWSame: true},
	"pF3D-IO":       {RAWSame: true},
	"MACSio-Silo":   {WAWSame: true},
	"GAMESS":        {WAWSame: true},
	"LAMMPS-ADIOS":  {WAWSame: true},
	"LAMMPS-NetCDF": {WAWSame: true},
}

func TestTable4SessionConflicts(t *testing.T) {
	for _, cfg := range Registry() {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) {
			t.Parallel()
			res := execute(t, cfg.Name(), Options{})
			_, sig := conflicts(t, res.Trace, pfs.Session)
			want := table4Expected[cfg.Name()]
			if sig != want {
				t.Fatalf("session signature = %+v, want %+v (Table 4)", sig, want)
			}
		})
	}
}

func TestTable4CommitConflicts(t *testing.T) {
	// §6.3: under commit semantics the FLASH conflicts disappear and every
	// other signature is unchanged.
	for _, cfg := range Registry() {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) {
			t.Parallel()
			res := execute(t, cfg.Name(), Options{})
			_, sig := conflicts(t, res.Trace, pfs.Commit)
			want := table4Expected[cfg.Name()]
			if strings.HasPrefix(cfg.Name(), "FLASH") {
				want = core.ConflictSignature{}
			}
			if sig != want {
				t.Fatalf("commit signature = %+v, want %+v", sig, want)
			}
		})
	}
}

// table3Expected is the Table 3 entry each configuration must exhibit
// (some configurations legitimately show additional patterns, e.g. NWChem's
// rank-0 trajectory next to its N-N scratch files; we assert containment).
var table3Expected = map[string]string{
	"FLASH-fbs":         "M-1 strided cyclic",
	"FLASH-nofbs":       "N-1 strided",
	"Nek5000":           "1-1 consecutive",
	"QMCPACK-HDF5":      "1-1 consecutive",
	"VASP":              "N-1 consecutive",
	"LBANN":             "N-1 consecutive",
	"LAMMPS-ADIOS":      "M-M consecutive",
	"LAMMPS-NetCDF":     "1-1 consecutive",
	"LAMMPS-HDF5":       "1-1 consecutive",
	"LAMMPS-MPI-IO":     "M-1 strided",
	"LAMMPS-POSIX":      "1-1 consecutive",
	"ENZO-HDF5":         "N-N consecutive",
	"NWChem":            "N-N consecutive",
	"ParaDiS-HDF5":      "N-1 strided",
	"ParaDiS-POSIX":     "N-1 strided",
	"Chombo-HDF5":       "N-1 strided",
	"GTC":               "1-1 consecutive",
	"GAMESS":            "M-M consecutive",
	"MILC-QCD-serial":   "1-1 consecutive",
	"MILC-QCD-parallel": "N-1 strided",
	"MACSio-Silo":       "N-M strided",
	"pF3D-IO":           "N-N consecutive",
	"HACC-IO-MPI-IO":    "N-N consecutive",
	"HACC-IO-POSIX":     "N-N consecutive",
	"VPIC-IO-HDF5":      "M-1 strided cyclic",
}

func TestTable3HighLevelPatterns(t *testing.T) {
	for _, cfg := range Registry() {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) {
			t.Parallel()
			res := execute(t, cfg.Name(), Options{})
			ps, err := core.ClassifyHighLevelParallelCtx(context.Background(), extracted(t, res.Trace),
				core.HLOptions{WorldSize: testRanks}, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := table3Expected[cfg.Name()]
			for _, p := range ps {
				if p.Key() == want {
					return
				}
			}
			keys := make([]string, len(ps))
			for i, p := range ps {
				keys[i] = p.Key()
			}
			t.Fatalf("patterns %v do not contain %q (Table 3)", keys, want)
		})
	}
}

func TestConflictsAreSynchronized(t *testing.T) {
	// §5.2 validation: every detected conflict pair must be ordered by the
	// program's MPI synchronization (the applications are race-free).
	for _, name := range []string{"FLASH-fbs", "FLASH-nofbs", "NWChem", "MACSio-Silo", "LAMMPS-ADIOS"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res := execute(t, name, Options{})
			hb, err := core.BuildHB(res.Trace)
			if err != nil {
				t.Fatal(err)
			}
			byFile, _ := conflicts(t, res.Trace, pfs.Session)
			total := 0
			for path, cs := range byFile {
				if un := core.ValidateConflicts(hb, cs); len(un) > 0 {
					t.Fatalf("%s: %d unsynchronized conflict pairs, first: %v", path, len(un), un[0])
				}
				total += len(cs)
			}
			if total == 0 {
				t.Fatal("expected conflicts to validate")
			}
		})
	}
}

func TestScaleInvariance(t *testing.T) {
	// §6.1: conflict signatures do not depend on scale. Run a conflicting
	// and a clean app at two scales and compare.
	for _, name := range []string{"FLASH-nofbs", "HACC-IO-POSIX", "LAMMPS-NetCDF"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			small := execute(t, name, Options{Ranks: 8, PPN: 2})
			large := execute(t, name, Options{Ranks: 32, PPN: 4})
			_, sigS := conflicts(t, small.Trace, pfs.Session)
			_, sigL := conflicts(t, large.Trace, pfs.Session)
			if sigS != sigL {
				t.Fatalf("signature changed with scale: %+v vs %+v", sigS, sigL)
			}
		})
	}
}

func TestVerdicts(t *testing.T) {
	// §6.3 bottom line: FLASH needs commit semantics; everything else runs
	// under session semantics.
	for _, cfg := range Registry() {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) {
			t.Parallel()
			res := execute(t, cfg.Name(), Options{})
			fas := extracted(t, res.Trace)
			ms, err := core.ConflictsAllForFilesCtx(context.Background(), fas, []pfs.Semantics{pfs.Session, pfs.Commit}, 1)
			if err != nil {
				t.Fatal(err)
			}
			v := core.VerdictFrom(ms[0].Signature, ms[1].Signature)
			wantWeakest := pfs.Session
			if strings.HasPrefix(cfg.Name(), "FLASH") {
				wantWeakest = pfs.Commit
			}
			if v.Weakest != wantWeakest {
				t.Fatalf("weakest sufficient model = %v, want %v", v.Weakest, wantWeakest)
			}
		})
	}
}

func TestAppsRunCorrectlyOnSufficientSemantics(t *testing.T) {
	// The executable version of the paper's headline (§6.3): with data
	// verification on, EVERY configuration runs clean on a PFS providing
	// its verdict's weakest sufficient semantics — session for all, commit
	// for the two FLASH variants.
	for _, cfg := range Registry() {
		cfg := cfg
		sem := pfs.Session
		if strings.HasPrefix(cfg.Name(), "FLASH") {
			sem = pfs.Commit
		}
		t.Run(cfg.Name()+"/"+sem.String(), func(t *testing.T) {
			t.Parallel()
			execute(t, cfg.Name(), Options{Semantics: sem, Params: Params{Verify: true}})
		})
	}
}

func TestFlashFailsUnderSessionSemantics(t *testing.T) {
	// The one application of the study that breaks on a session-semantics
	// PFS: its cross-process HDF5 metadata writes read back stale.
	cfg, _ := Lookup("FLASH-nofbs")
	res, err := Execute(cfg, Options{Ranks: testRanks, PPN: testPPN,
		Semantics: pfs.Session, Params: Params{Verify: true}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err() == nil {
		t.Fatal("FLASH ran clean on session semantics; expected stale metadata corruption")
	}
	if !strings.Contains(res.Err().Error(), "stale root header") {
		t.Fatalf("unexpected failure: %v", res.Err())
	}
}

func TestFlashFixedByCollectiveMetadata(t *testing.T) {
	// §6.3's proposed fix: with collective metadata mode, rank 0 performs
	// all metadata I/O and the cross-process conflict disappears — even the
	// session run verifies clean. We emulate the fix by running the
	// checkpoint path directly with the option set.
	res, err := harness.Run(harness.Config{Ranks: 8, PPN: 2, Semantics: pfs.Session},
		flashFixMeta(), func(ctx *harness.Ctx) error {
			p := Params{Verify: true}.withDefaults()
			for c := 0; c < 2; c++ {
				if err := flashCheckpointFixed(ctx, p, c); err != nil {
					return err
				}
			}
			return ctx.Failures()
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err() != nil {
		t.Fatalf("collective-metadata FLASH failed on session semantics: %v", res.Err())
	}
	_, sig := conflicts(t, res.Trace, pfs.Session)
	if sig.HasDifferentProcess() {
		t.Fatalf("cross-process conflicts remain with collective metadata: %+v", sig)
	}
}

func TestDeterministicTraces(t *testing.T) {
	a := execute(t, "LAMMPS-MPI-IO", Options{Seed: 5})
	b := execute(t, "LAMMPS-MPI-IO", Options{Seed: 5})
	if a.Trace.NumRecords() != b.Trace.NumRecords() {
		t.Fatalf("record counts differ: %d vs %d", a.Trace.NumRecords(), b.Trace.NumRecords())
	}
	for rank := range a.Trace.PerRank {
		rsa, rsb := a.Trace.Records(rank), b.Trace.Records(rank)
		for i := range rsa {
			ra, rb := rsa[i], rsb[i]
			if ra.TStart != rb.TStart || ra.Func != rb.Func {
				t.Fatalf("rank %d record %d differs: %v vs %v", rank, i, ra, rb)
			}
		}
	}
}
