// Package semfs reproduces "File System Semantics Requirements of HPC
// Applications" (Wang, Mohror, Snir — HPDC 2021) as an executable system:
// a deterministic simulated HPC I/O stack (MPI runtime, parallel file
// system with four consistency models, POSIX/MPI-IO/HDF5/NetCDF/ADIOS/Silo
// layers, 17 application workload emulators, and a Recorder-style
// multi-level tracer) together with the paper's trace analysis (overlap
// detection, conflict detection under commit/session semantics, access
// pattern classification, metadata census, happens-before validation).
//
// The typical flow mirrors the paper's methodology:
//
//	res, err := semfs.Run("FLASH-nofbs", semfs.RunOptions{Ranks: 64})
//	...
//	an, err := semfs.AnalyzeParallelCtx(ctx, res.Trace, 0)
//	...
//	fmt.Println(an.Verdict.Weakest) // the weakest sufficient PFS semantics
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every table and figure.
package semfs

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/recorder"
	"repro/internal/recorder/colfmt"
	"repro/internal/report"
	"repro/internal/storage"
)

// Semantics re-exports the PFS consistency models of Section 3.
type Semantics = pfs.Semantics

// The four consistency models, strongest first.
const (
	Strong   = pfs.Strong
	Commit   = pfs.Commit
	Session  = pfs.Session
	Eventual = pfs.Eventual
)

// RunOptions configures an emulated application run.
type RunOptions struct {
	// Ranks is the number of MPI processes (default 64, the paper's small
	// scale).
	Ranks int
	// PPN is processes per node (default 8, as in the paper's 8x8 runs).
	PPN int
	// Seed drives all simulated randomness; equal seeds give byte-identical
	// traces.
	Seed uint64
	// Semantics selects the consistency model of the underlying simulated
	// PFS (default Strong, like the paper's Lustre testbed).
	Semantics Semantics
	// Steps and Block scale the workload (see apps.Params).
	Steps int
	Block int64
	// Verify makes applications check the data they read, surfacing stale
	// reads on weak-semantics file systems as rank errors.
	Verify bool
}

// Result of an application run.
type Result struct {
	// Trace is the aligned multi-level I/O trace (the Recorder artifact).
	Trace *recorder.Trace
	// FS is the simulated file system after the run.
	FS *pfs.FileSystem
	// RankErrors holds per-rank failures (stale reads under Verify, I/O
	// errors); empty on a clean run.
	RankErrors []error
}

// Applications lists the available application configurations, e.g.
// "FLASH-fbs", "LAMMPS-ADIOS", "GTC" (the 24 configurations of the study).
func Applications() []string { return apps.Names() }

// Describe returns the Table 5 description of a configuration.
func Describe(name string) (string, error) {
	cfg, ok := apps.Lookup(name)
	if !ok {
		return "", fmt.Errorf("semfs: unknown application %q (see Applications())", name)
	}
	return cfg.Description, nil
}

// Run stages and executes one application configuration on a simulated PFS
// and returns its trace.
func Run(name string, o RunOptions) (*Result, error) {
	cfg, ok := apps.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("semfs: unknown application %q (see Applications())", name)
	}
	if o.Ranks == 0 {
		o.Ranks = 64
	}
	if o.PPN == 0 {
		o.PPN = 8
		if o.Ranks < 8 {
			o.PPN = o.Ranks
		}
	}
	res, err := apps.Execute(cfg, apps.Options{
		Ranks:     o.Ranks,
		PPN:       o.PPN,
		Seed:      o.Seed,
		Semantics: o.Semantics,
		Params: apps.Params{
			Steps:  o.Steps,
			Block:  o.Block,
			Verify: o.Verify,
		},
	})
	if err != nil {
		return nil, err
	}
	return &Result{Trace: res.Trace, FS: res.FS, RankErrors: res.Errs}, nil
}

// Err returns the first rank error, or nil.
func (r *Result) Err() error {
	if len(r.RankErrors) > 0 {
		return r.RankErrors[0]
	}
	return nil
}

// Analysis bundles everything the paper's method extracts from one trace:
// it is the one analysis result per trace, and the CLI's report, verdict
// and §5.2 validation are all views over it.
type Analysis struct {
	// Verdict is the §6.3 bottom line: conflict signatures under session
	// and commit semantics and the weakest sufficient model.
	Verdict core.Verdict
	// SessionConflicts / CommitConflicts list the conflicting access pairs
	// per file under each model. The lists are read-only: a file's commit
	// list may share its backing array with its session list (every
	// commit conflict is a session conflict, and usually the lists are
	// equal).
	SessionConflicts map[string][]core.Conflict
	CommitConflicts  map[string][]core.Conflict
	// Patterns are the Table 3 high-level patterns.
	Patterns []core.HighLevelPattern
	// Global and Local are the Figure 1 access-pattern mixes.
	Global, Local core.PatternMix
	// Census is the Figure 3 metadata-operation census.
	Census *core.Census
	// MetaConflicts are cross-process metadata dependencies (the paper's
	// §7 future-work analysis): namespace mutations one process makes that
	// another process's operations rely on seeing. Applications with any
	// need prompt metadata visibility (unsafe on fully-relaxed-metadata
	// PFSs without extra discipline).
	MetaConflicts []core.MetaConflict
	MetaSignature core.MetaSignature
	// Report is the per-run digest the paper's published artifact ships
	// with each trace (function counters, size histogram, per-file rows);
	// its per-file conflict columns count SessionConflicts and
	// CommitConflicts. Render it with its Render method.
	Report *report.RunReport
	// Unordered is the §5.2 check: the session conflicts the application's
	// MPI synchronization does not order (nil for race-free applications),
	// in path order, each file's pairs in report order. It is nil when
	// HBErr is set.
	Unordered []core.Conflict
	// HBErr is the happens-before build's failure, e.g. a receive whose
	// matching send a salvaged trace lost. It does not fail the analysis:
	// every other field is still filled, only Unordered is missing.
	HBErr error
}

// AnalyzeParallelCtx runs the full paper analysis over a trace. The trace
// is scanned once: one fold per rank stream yields the extraction, the
// metadata census, the call counters and the metadata and MPI events. Then five independent passes (fused session+commit
// conflict sweep, pattern classification + Figure 1 mixes,
// metadata-conflict detection, the happens-before build and the run-report
// digest) fan out as a scatter/gather, the first three each internally
// sharded across a pool of the given size: workers <= 0 selects
// runtime.GOMAXPROCS, and 1 runs every pass serially. After the join the
// report's conflict columns and the §5.2 unordered pairs are read off the
// one conflict sweep. Every merge is deterministic, so the result is
// identical at every worker count (see TestAnalyzeParallelMatchesSerial).
// Cancellation stops the scan and every sharded pass within one task
// boundary (no new per-rank or per-file task starts once ctx is done; the
// happens-before build and the digest are one task each) and the call
// returns ctx.Err() instead of a partial Analysis.
func AnalyzeParallelCtx(ctx context.Context, tr *recorder.Trace, workers int) (*Analysis, error) {
	sc, err := core.ScanTraceCtx(ctx, tr, workers)
	if err != nil {
		return nil, err
	}
	return analyzeScan(ctx, tr.Meta, sc, workers)
}

// AnalyzeDirOn runs AnalyzeParallelCtx's analysis over a trace directory
// on a storage backend without loading it: each rank file is mapped,
// folded by the scan through a strict cursor and unmapped before its
// worker takes the next rank, so the trace never exists as []Record. The
// Analysis equals AnalyzeParallelCtx's over LoadTraceOn's trace, and a
// damaged, missing or non-columnar stream fails with LoadTraceOn's error
// for the lowest-ranked failure.
func AnalyzeDirOn(b storage.Backend, dir string, workers int) (*Analysis, error) {
	an, _, err := analyzeDir(b, dir, workers, false)
	return an, err
}

// Salvage re-exports the degraded-mode scan report (see AnalyzeDirLenientOn).
type Salvage = recorder.Salvage

// AnalyzeDirLenientOn is AnalyzeDirOn in degraded mode: a damaged rank
// stream contributes the records that survive (its intact blocks) and the
// Salvage reports exactly what was lost. It fails only when the metadata
// is unusable or no record survives at all (then beside the Salvage).
func AnalyzeDirLenientOn(b storage.Backend, dir string, workers int) (*Analysis, *Salvage, error) {
	return analyzeDir(b, dir, workers, true)
}

// analyzeDir scans a trace directory's rank streams, strictly or
// leniently, and runs the post-scan pipeline.
func analyzeDir(b storage.Backend, dir string, workers int, lenient bool) (*Analysis, *Salvage, error) {
	meta, err := colfmt.MetaOn(b, dir)
	if err != nil {
		return nil, nil, err
	}
	open := func(rank int) (core.RecordStream, func(), error) { return colfmt.OpenRankOn(b, dir, rank) }
	salvage := func() (*Salvage, error) { return nil, nil }
	if lenient {
		open, salvage = colfmt.OpenRanksLenientOn(b, dir, meta.Ranks)
	}
	ctx := context.Background() // like LoadTraceOn, it runs to completion
	sc, err := core.ScanRanksCtx(ctx, meta.Ranks, workers, open)
	if err != nil {
		return nil, nil, err
	}
	sal, err := salvage()
	if err != nil {
		return nil, sal, err
	}
	an, err := analyzeScan(ctx, meta, sc, workers)
	return an, sal, err
}

// analyzeScan is the one post-scan pipeline behind AnalyzeParallelCtx and
// AnalyzeDirOn.
func analyzeScan(ctx context.Context, meta recorder.Meta, sc *core.Scan, workers int) (*Analysis, error) {
	fas := sc.Files
	an := &Analysis{Census: sc.Census}
	var sessionSig, commitSig core.ConflictSignature
	var sessionFiles, commitFiles [][]core.Conflict // index-match fas
	var hb *core.HB

	// The scatter/gather fans the passes out as named spans under one
	// root, so a -trace-spans export shows which pass dominates the wall
	// clock and how the passes overlap.
	root := obs.Default().Tracer().Start("analyze", "semfs")
	defer root.End()
	var wg sync.WaitGroup
	errs := make([]error, 5)
	launch := func(i int, name string, f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			span := root.Child(name)
			errs[i] = f()
			span.End()
		}()
	}
	launch(0, "conflicts", func() error {
		ms, err := core.ConflictsAllForFilesCtx(ctx, fas, []pfs.Semantics{pfs.Session, pfs.Commit}, workers)
		if err != nil {
			return err
		}
		an.SessionConflicts, sessionSig, sessionFiles = ms[0].ByFile, ms[0].Signature, ms[0].Files
		an.CommitConflicts, commitSig, commitFiles = ms[1].ByFile, ms[1].Signature, ms[1].Files
		return nil
	})
	launch(1, "patterns", func() (err error) {
		if an.Patterns, err = core.ClassifyHighLevelParallelCtx(ctx, fas, core.HLOptions{WorldSize: meta.Ranks}, workers); err != nil {
			return err
		}
		if an.Global, err = core.GlobalPatternParallelCtx(ctx, fas, workers); err != nil {
			return err
		}
		an.Local, err = core.LocalPatternParallelCtx(ctx, fas, workers)
		return err
	})
	launch(2, "meta-conflicts", func() (err error) {
		if an.MetaConflicts, err = sc.MetaConflictsCtx(ctx, workers); err != nil {
			return err
		}
		an.MetaSignature = core.MetaSignatureOf(an.MetaConflicts)
		return nil
	})
	launch(3, "hb", func() error {
		hb, an.HBErr = sc.HB()
		return nil
	})
	launch(4, "report", func() error {
		an.Report = report.RunReportOf(meta, sc)
		return nil
	})
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// The report's files, like the sweep's per-file lists, index-match
	// fas: both are in path order.
	for i := range an.Report.Files {
		f := &an.Report.Files[i]
		f.SessionConflicts = len(sessionFiles[i])
		f.CommitConflicts = len(commitFiles[i])
	}
	if an.HBErr == nil {
		for _, cs := range sessionFiles {
			an.Unordered = append(an.Unordered, core.ValidateConflicts(hb, cs)...)
		}
	}
	an.Verdict = core.VerdictFrom(sessionSig, commitSig)
	return an, nil
}

// ValidateSynchronization performs the §5.2 check: every conflict detected
// under session semantics must be ordered by the application's MPI
// synchronization. It is a view over a serial AnalyzeParallelCtx: the
// unordered pairs (nil for race-free applications) in path order, each
// file's pairs in report order, or the happens-before build's error.
func ValidateSynchronization(tr *recorder.Trace) ([]core.Conflict, error) {
	an, err := AnalyzeParallelCtx(context.Background(), tr, 1)
	if err != nil {
		return nil, err
	}
	if an.HBErr != nil {
		return nil, an.HBErr
	}
	return an.Unordered, nil
}

// Trace re-exports the recorder's trace type for callers that hold loaded
// traces without importing internal packages.
type Trace = recorder.Trace

// SaveTraceOn persists a trace as a directory of per-rank binary streams
// in the columnar format (see internal/recorder/colfmt) on a storage
// backend: storage.OS() for the local file system, which the CLIs wrap in
// storage.NewRetry.
func SaveTraceOn(b storage.Backend, dir string, tr *recorder.Trace) error {
	return colfmt.SaveDirOn(b, dir, tr)
}

// LoadTraceOn loads a trace written by SaveTraceOn from a storage backend,
// decoding ranks in parallel across workers (0 means GOMAXPROCS). A rank
// file that is not columnar fails the load.
func LoadTraceOn(b storage.Backend, dir string, workers int) (*recorder.Trace, error) {
	return colfmt.LoadDirOn(b, dir, workers)
}

// Ctx is the per-rank context handed to custom application bodies.
type Ctx = harness.Ctx

// RunCustom executes a hand-written SPMD body on the simulated stack and
// traces it — the way to study your own I/O protocol with the paper's
// analysis (see examples/conflictlab).
func RunCustom(name string, o RunOptions, body func(*Ctx) error) (*Result, error) {
	if o.Ranks == 0 {
		o.Ranks = 8
	}
	res, err := harness.Run(harness.Config{
		Ranks:     o.Ranks,
		PPN:       o.PPN,
		Seed:      o.Seed,
		Semantics: o.Semantics,
	}, recorder.Meta{App: name, Library: "POSIX"}, body)
	if err != nil {
		return nil, err
	}
	return &Result{Trace: res.Trace, FS: res.FS, RankErrors: res.Errs}, nil
}
