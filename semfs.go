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
	// Steps, CheckpointEvery and Block scale the workload (see apps.Params).
	Steps           int
	CheckpointEvery int
	Block           int64
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
			Steps:           o.Steps,
			CheckpointEvery: o.CheckpointEvery,
			Block:           o.Block,
			Verify:          o.Verify,
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

// Analysis bundles everything the paper's method extracts from one trace.
type Analysis struct {
	// Verdict is the §6.3 bottom line: conflict signatures under session
	// and commit semantics and the weakest sufficient model.
	Verdict core.Verdict
	// SessionConflicts / CommitConflicts list the conflicting access pairs
	// per file under each model.
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
}

// AnalyzeParallelCtx runs the full paper analysis over a trace. The trace
// is extracted once (through the process-wide extraction cache, so repeated
// analyses of one trace share the work), then the four independent passes
// (fused session+commit conflict sweep, pattern classification + Figure 1
// mixes, metadata census, metadata-conflict detection) fan out as a
// scatter/gather, each internally sharded across a pool of the given size:
// workers <= 0 selects runtime.GOMAXPROCS, and 1 runs every pass serially.
// Every merge is deterministic, so the result is identical at every worker
// count (see TestAnalyzeParallelMatchesSerial). Cancellation stops every
// pass within one task boundary (no new per-file or per-rank task starts
// once ctx is done) and the call returns ctx.Err() instead of a partial
// Analysis.
func AnalyzeParallelCtx(ctx context.Context, tr *recorder.Trace, workers int) (*Analysis, error) {
	fas, err := core.ExtractSharedCtx(ctx, tr, workers)
	if err != nil {
		return nil, err
	}
	an := &Analysis{}
	var sessionSig, commitSig core.ConflictSignature

	// The scatter/gather fans the four passes out as named spans under one
	// root, so a -trace-spans export shows which pass dominates the wall
	// clock and how the passes overlap.
	root := obs.Default().Tracer().Start("analyze", "semfs")
	defer root.End()
	var wg sync.WaitGroup
	errs := make([]error, 4)
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
		an.SessionConflicts, sessionSig = ms[0].ByFile, ms[0].Signature
		an.CommitConflicts, commitSig = ms[1].ByFile, ms[1].Signature
		return nil
	})
	launch(1, "patterns", func() (err error) {
		if an.Patterns, err = core.ClassifyHighLevelParallelCtx(ctx, fas, core.HLOptions{WorldSize: tr.Meta.Ranks}, workers); err != nil {
			return err
		}
		if an.Global, err = core.GlobalPatternParallelCtx(ctx, fas, workers); err != nil {
			return err
		}
		an.Local, err = core.LocalPatternParallelCtx(ctx, fas, workers)
		return err
	})
	launch(2, "census", func() (err error) {
		an.Census, err = core.MetadataCensusParallelCtx(ctx, tr, workers)
		return err
	})
	launch(3, "meta-conflicts", func() (err error) {
		if an.MetaConflicts, err = core.DetectMetadataConflictsParallelCtx(ctx, tr, workers); err != nil {
			return err
		}
		an.MetaSignature = core.MetaSignatureOf(an.MetaConflicts)
		return nil
	})
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	an.Verdict = core.VerdictFrom(sessionSig, commitSig)
	return an, nil
}

// ValidateSynchronization performs the §5.2 check: every conflict detected
// under session semantics must be ordered by the application's MPI
// synchronization. It returns the unordered pairs (nil for race-free
// applications) in path order, each file's pairs in report order.
func ValidateSynchronization(tr *recorder.Trace) ([]core.Conflict, error) {
	hb, err := core.BuildHB(tr)
	if err != nil {
		return nil, err
	}
	fas, err := core.ExtractSharedCtx(context.Background(), tr, 1)
	if err != nil {
		return nil, err
	}
	byFile, _ := core.ConflictsOverFiles(fas, pfs.Session)
	var unordered []core.Conflict
	for _, fa := range fas {
		unordered = append(unordered, core.ValidateConflicts(hb, byFile[fa.Path])...)
	}
	return unordered, nil
}

// Report builds the per-run digest (function counters, size histogram,
// per-file conflict summary) the paper's published artifact ships with each
// trace. Render it with its Render method.
func Report(tr *recorder.Trace) *report.RunReport { return report.BuildRunReport(tr) }

// Trace re-exports the recorder's trace type for callers that hold loaded
// traces without importing internal packages.
type Trace = recorder.Trace

// SaveTrace persists a trace as a directory of per-rank binary streams in
// the columnar format (see internal/recorder/colfmt). Use SaveTraceFormat
// to write the v1 record-framed format for old readers.
func SaveTrace(dir string, tr *recorder.Trace) error {
	return colfmt.SaveDirOn(storage.OS(), dir, tr, colfmt.FormatColumnar)
}

// SaveTraceOn is SaveTrace against an explicit storage backend (see
// internal/storage.ParseSpec for backend construction).
func SaveTraceOn(b storage.Backend, dir string, tr *recorder.Trace) error {
	return colfmt.SaveDirOn(b, dir, tr, colfmt.FormatColumnar)
}

// TraceFormat selects an on-disk trace format ("columnar" or "v1").
type TraceFormat = colfmt.Format

// Trace format constants.
const (
	FormatColumnar = colfmt.FormatColumnar
	FormatV1       = colfmt.FormatV1
)

// ParseTraceFormat parses a trace format name ("columnar" or "v1").
func ParseTraceFormat(s string) (TraceFormat, error) { return colfmt.ParseFormat(s) }

// SaveTraceFormat is SaveTrace with an explicit on-disk format.
func SaveTraceFormat(dir string, tr *recorder.Trace, f TraceFormat) error {
	return colfmt.SaveDirOn(storage.OS(), dir, tr, f)
}

// SaveTraceFormatOn is SaveTraceFormat against an explicit storage backend.
func SaveTraceFormatOn(b storage.Backend, dir string, tr *recorder.Trace, f TraceFormat) error {
	return colfmt.SaveDirOn(b, dir, tr, f)
}

// LoadTrace loads a trace written by SaveTrace, sniffing each rank file's
// format (columnar or v1 — mixed directories are fine) and decoding ranks
// in parallel across workers (0 means GOMAXPROCS).
func LoadTrace(dir string, workers int) (*recorder.Trace, error) {
	return colfmt.LoadDirOn(storage.OS(), dir, workers)
}

// LoadTraceOn is LoadTrace against an explicit storage backend.
func LoadTraceOn(b storage.Backend, dir string, workers int) (*recorder.Trace, error) {
	return colfmt.LoadDirOn(b, dir, workers)
}

// ConvertTrace rewrites a trace directory into the requested format at a
// new path (src and dst must differ), returning the loaded trace.
func ConvertTrace(src, dst string, f TraceFormat, workers int) (*recorder.Trace, error) {
	return colfmt.ConvertDirOn(storage.OS(), src, dst, f, workers)
}

// ConvertTraceOn is ConvertTrace against an explicit storage backend.
func ConvertTraceOn(b storage.Backend, src, dst string, f TraceFormat, workers int) (*recorder.Trace, error) {
	return colfmt.ConvertDirOn(b, src, dst, f, workers)
}

// Salvage re-exports the degraded-mode load report (see LoadTraceLenient).
type Salvage = recorder.Salvage

// LoadTraceLenient loads a trace in degraded mode: truncated rank streams
// contribute their valid prefix, unreadable ones are skipped, and the
// Salvage reports exactly what was lost — so a damaged trace can still be
// analyzed instead of aborting the pipeline. It fails only when the
// metadata is unusable or no records survive at all.
func LoadTraceLenient(dir string, workers int) (*recorder.Trace, *Salvage, error) {
	return colfmt.LoadDirLenientOn(storage.OS(), dir, workers)
}

// LoadTraceLenientOn is LoadTraceLenient against an explicit storage
// backend.
func LoadTraceLenientOn(b storage.Backend, dir string, workers int) (*recorder.Trace, *Salvage, error) {
	return colfmt.LoadDirLenientOn(b, dir, workers)
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
