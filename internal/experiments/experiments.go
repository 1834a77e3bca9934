// Package experiments orchestrates the reproduction of every table and
// figure in the paper's evaluation section: it runs the application
// configurations at a chosen scale, analyzes each trace once with
// semfs.AnalyzeParallelCtx and renders views over those analyses with
// internal/report. cmd/semrepro, the benchmark harness and EXPERIMENTS.md
// generation all build on it.
package experiments

import (
	"context"
	"errors"
	"fmt"
	semfs "repro"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/payload"
	"repro/internal/pfs"
	"repro/internal/recorder"
	"repro/internal/report"
)

// Scale fixes the run parameters for one reproduction pass.
type Scale struct {
	Ranks int
	PPN   int
	Seed  uint64
	// Semantics is the consistency model the sweep's file systems run under
	// (zero value = pfs.Strong, the paper's baseline).
	Semantics pfs.Semantics
	Params    apps.Params
}

// TestScale is a fast configuration for unit tests.
func TestScale() Scale {
	return Scale{Ranks: 16, PPN: 2, Seed: 1}
}

// Results holds one trace and one analysis per application configuration.
type Results struct {
	Scale Scale
	// ByName holds each successful configuration's run result. The
	// simulated file system (FS) is dropped once the run ends.
	ByName map[string]*harness.Result
	// Analyses holds each successful configuration's one analysis of its
	// trace, computed on the sweep's pool right after the run. Every table
	// and figure except Figure 2 is a view over these.
	Analyses map[string]*semfs.Analysis
	Ordered  []string // registry order (successful configurations only)
	// Errs holds per-configuration failures (of the run or its analysis),
	// keyed by configuration name. A failed configuration is absent from
	// ByName/Analyses/Ordered but does not abort the rest of the registry.
	Errs map[string]error
}

// RunAll executes every configuration of the registry at the given scale,
// fanning the runs out over a GOMAXPROCS-sized worker pool (each simulated
// job is fully self-contained — own file system, MPI world and seeded RNG —
// so concurrent runs produce byte-identical traces to serial ones). Unlike
// the historical fail-fast behavior, every configuration runs to completion:
// per-configuration failures are collected in Results.Errs and joined into
// the returned error, alongside the partial Results for the configurations
// that succeeded.
func RunAll(s Scale) (*Results, error) {
	return RunAllCtx(context.Background(), s, SweepOptions{})
}

// SweepOptions hardens a registry sweep.
type SweepOptions struct {
	// Workers sizes the pool (<= 0 selects runtime.GOMAXPROCS, 1 is serial).
	Workers int
	// TaskTimeout, when positive, is a per-configuration wall-clock ceiling:
	// a configuration that exceeds it fails with a timeout error while the
	// rest of the sweep continues. The abandoned run keeps its goroutines
	// until the simulated job drains; only its result is discarded. It
	// bounds the run, not the analysis that follows it.
	TaskTimeout time.Duration
}

// RunAllCtx is RunAll under a context with sweep hardening: cancelling ctx
// stops the sweep at the next configuration boundary (configurations that
// never started are reported as cancelled in Results.Errs), a panicking
// configuration is isolated into its own per-configuration error while the
// others run to completion, and SweepOptions.TaskTimeout bounds each
// configuration individually.
func RunAllCtx(ctx context.Context, s Scale, o SweepOptions) (*Results, error) {
	return runConfigsCtx(ctx, apps.Registry(), s, o)
}

// runConfigsCtx is the sharded registry sweep behind RunAllCtx. Each task
// runs one configuration and then analyzes its trace on a pool of one,
// since the sweep's pool already spreads the configurations.
func runConfigsCtx(ctx context.Context, cfgs []*apps.Config, s Scale, o SweepOptions) (*Results, error) {
	type slot struct {
		res  *harness.Result
		an   *semfs.Analysis
		err  error
		done bool
	}
	slots := make([]slot, len(cfgs))
	ctxErr := core.ParallelForCtx(ctx, len(cfgs), o.Workers, func(i int) {
		name := cfgs[i].Name()
		res, err := runCell(ctx, cfgs[i], s, o.TaskTimeout)
		var an *semfs.Analysis
		if err == nil {
			// Nothing reads the simulated file system after the run; kept
			// until the sweep ends it would dominate the live heap.
			res.FS = nil
			if an, err = semfs.AnalyzeParallelCtx(ctx, res.Trace, 1); err != nil {
				res, err = nil, fmt.Errorf("experiments: %s: analyze: %w", name, err)
			}
		}
		slots[i] = slot{res: res, an: an, err: err, done: true}
	})

	out := &Results{Scale: s, ByName: make(map[string]*harness.Result),
		Analyses: make(map[string]*semfs.Analysis), Errs: make(map[string]error)}
	var errs []error
	for i, cfg := range cfgs { // registry order, regardless of completion order
		if !slots[i].done {
			// The pool stopped before this configuration started.
			err := fmt.Errorf("experiments: %s: %w", cfg.Name(), ctxErr)
			out.Errs[cfg.Name()] = err
			errs = append(errs, err)
			continue
		}
		if slots[i].err != nil {
			out.Errs[cfg.Name()] = slots[i].err
			errs = append(errs, slots[i].err)
			continue
		}
		out.ByName[cfg.Name()] = slots[i].res
		out.Analyses[cfg.Name()] = slots[i].an
		out.Ordered = append(out.Ordered, cfg.Name())
	}
	return out, errors.Join(errs...)
}

// execute is apps.Execute behind a seam so the sweep-hardening tests can
// inject panicking or hanging executions without fabricating real ones.
var execute = apps.Execute

// runCell executes one configuration with panic isolation and the optional
// per-task timeout. A panic inside the configuration (application body bugs
// surface as rank errors already; this guards the sweep machinery itself)
// becomes that cell's error instead of killing the whole sweep.
func runCell(ctx context.Context, cfg *apps.Config, s Scale, timeout time.Duration) (*harness.Result, error) {
	// Read the seam once, synchronously: a timed-out cell's goroutine can
	// outlive the sweep, and must not touch the package variable after the
	// caller (or a test's cleanup) moves on.
	exec := execute
	run := func() (res *harness.Result, err error) {
		// One span per configuration (lane 0; the worker-pool lanes
		// underneath come from core.ParallelForCtx) times the cell; its
		// outcome is Results.Errs or Results.ByName.
		span := obs.Default().Tracer().Start(cfg.Name(), "experiments.config")
		defer func() {
			if rec := recover(); rec != nil {
				res, err = nil, fmt.Errorf("experiments: %s: panic: %v\n%s", cfg.Name(), rec, debug.Stack())
			}
			span.End()
		}()
		r, e := exec(cfg, apps.Options{
			Ranks: s.Ranks, PPN: s.PPN, Seed: s.Seed, Semantics: s.Semantics,
			Params: s.Params,
		})
		if e == nil {
			e = r.Err()
		}
		if e != nil {
			return nil, fmt.Errorf("experiments: %s: %w", cfg.Name(), e)
		}
		return r, nil
	}
	if timeout <= 0 && ctx.Done() == nil {
		return run()
	}
	type outcome struct {
		res *harness.Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		r, e := run()
		ch <- outcome{r, e}
	}()
	var expired <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	select {
	case oc := <-ch:
		return oc.res, oc.err
	case <-expired:
		return nil, fmt.Errorf("experiments: %s: timed out after %v", cfg.Name(), timeout)
	case <-ctx.Done():
		return nil, fmt.Errorf("experiments: %s: %w", cfg.Name(), ctx.Err())
	}
}

// Table1 renders the static PFS categorization.
func Table1() string { return report.Table1() }

// Table3 renders every configuration's high-level patterns as the pattern
// matrix.
func Table3(r *Results) string {
	var rows []report.Table3Row
	for _, name := range r.Ordered {
		rows = append(rows, report.Table3Row{Config: name, Patterns: r.Analyses[name].Patterns})
	}
	return report.Table3(rows)
}

// Table4 renders the conflicts under session and commit semantics as the
// check-mark table.
func Table4(r *Results) string {
	return report.Table4(Table4Rows(r))
}

// Table4Rows lists the Table 4 signatures of every configuration.
func Table4Rows(r *Results) []report.Table4Row {
	var rows []report.Table4Row
	for _, name := range r.Ordered {
		v := r.Analyses[name].Verdict
		rows = append(rows, report.Table4Row{
			Config: name, Library: r.ByName[name].Trace.Meta.Library,
			Session: v.Session, Commit: v.Commit,
		})
	}
	return rows
}

// Table5 renders the configuration inventory from the registry.
func Table5() string {
	var rows [][2]string
	for _, cfg := range apps.Registry() {
		rows = append(rows, [2]string{cfg.Name(), cfg.Description})
	}
	return report.Table5(rows)
}

// Figure1 renders the access-pattern mixes; returns the text figure and the
// CSV series.
func Figure1(r *Results) (string, string) {
	var rows []report.Figure1Row
	for _, name := range r.Ordered {
		an := r.Analyses[name]
		rows = append(rows, report.Figure1Row{Config: name, Global: an.Global, Local: an.Local})
	}
	return report.Figure1(rows), report.Figure1CSV(rows)
}

// Figure2 produces the six panels of Figure 2 as CSV scatter series
// (offset/time per rank) from the FLASH traces: checkpoint and plot files
// under collective (fbs) and independent (nofbs) I/O. SVG renderings of the
// checkpoint panels are included alongside. It is the one artifact that
// needs the accesses themselves, so it extracts the two traces it plots.
func Figure2(r *Results) map[string]string {
	panels := make(map[string]string)
	for _, variant := range []string{"fbs", "nofbs"} {
		res, ok := r.ByName["FLASH-"+variant]
		if !ok {
			continue
		}
		// Only cancellation ends a scan early, and nothing cancels this one.
		fas, _ := core.ExtractSharedCtx(context.Background(), res.Trace, 1)
		chkCSV := report.Figure2CSVOf(fas, "/flash_hdf5_chk_0000")
		panels["flash_"+variant+"_checkpoint.csv"] = chkCSV
		panels["flash_"+variant+"_plot.csv"] = report.Figure2CSVOf(fas, "/flash_hdf5_plt_cnt_0000")
		// Single-rank view (Figure 2f): rank 0's accesses only.
		panels["flash_"+variant+"_checkpoint_rank0.csv"] = filterCSVRank(chkCSV, 0)
		panels["flash_"+variant+"_checkpoint.svg"] = report.Figure2SVGOf(fas,
			"/flash_hdf5_chk_0000", "FLASH-"+variant+" checkpoint file, write accesses over time")
		panels["flash_"+variant+"_plot.svg"] = report.Figure2SVGOf(fas,
			"/flash_hdf5_plt_cnt_0000", "FLASH-"+variant+" plot file, write accesses over time")
	}
	return panels
}

func filterCSVRank(csv string, rank int) string {
	lines := strings.Split(csv, "\n")
	var out []string
	want := fmt.Sprintf(",%d,", rank)
	for i, l := range lines {
		if i == 0 || strings.Contains(l, want) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// Figure3 renders the metadata-operation matrix.
func Figure3(r *Results) string {
	var rows []report.Figure3Row
	for _, name := range r.Ordered {
		rows = append(rows, report.Figure3Row{Config: name, Census: r.Analyses[name].Census})
	}
	return report.Figure3(rows)
}

// VerdictsReport renders the §6.3 per-application bottom line.
func VerdictsReport(r *Results) string {
	rows := make([]struct {
		Config  string
		Verdict core.Verdict
	}, 0, len(r.Ordered))
	for _, name := range r.Ordered {
		rows = append(rows, struct {
			Config  string
			Verdict core.Verdict
		}{name, r.Analyses[name].Verdict})
	}
	return report.Verdicts(rows)
}

// MetaTable renders the future-work extension: cross-process metadata
// dependencies per configuration (which applications require prompt
// metadata visibility).
func MetaTable(r *Results) string {
	rows := make([]report.MetaRow, 0, len(r.Ordered))
	for _, name := range r.Ordered {
		an := r.Analyses[name]
		rows = append(rows, report.MetaRow{Config: name, Signature: an.MetaSignature, Pairs: len(an.MetaConflicts)})
	}
	return report.MetaTable(rows)
}

// BenchResult is one cell of the PFS-semantics ablation.
type BenchResult struct {
	Semantics     pfs.Semantics
	Workload      string
	Ranks         int
	ElapsedNS     uint64 // simulated wall time of the I/O phase
	LockAcquires  int64
	LockContended int64
	MetaOps       int64
	BytesWritten  int64
}

// PFSBenchWorkloads lists the ablation workloads.
func PFSBenchWorkloads() []string { return []string{"n1-strided", "nn-filepp", "n1-small"} }

// PFSBench runs a synthetic workload against a PFS with the given semantics
// and reports the simulated elapsed time: the executable version of the
// paper's motivation that strong semantics' per-operation locking is the
// bottleneck relaxed-semantics PFSs remove (Sections 1 and 3).
func PFSBench(workload string, sem pfs.Semantics, ranks, ppn int, block int64, opsPerRank int) (BenchResult, error) {
	body := func(ctx *harness.Ctx) error {
		switch workload {
		case "n1-strided":
			fd, err := ctx.OS.Open("/shared.dat", recorder.OCreat|recorder.OWronly, 0o644)
			if err != nil {
				return err
			}
			for k := 0; k < opsPerRank; k++ {
				off := int64(k)*int64(ctx.Size)*block + int64(ctx.Rank)*block
				if _, err := ctx.OS.Pwrite(fd, payload.Bytes(make([]byte, block)), off); err != nil {
					return err
				}
			}
			return ctx.OS.Close(fd)
		case "nn-filepp":
			fd, err := ctx.OS.Open(fmt.Sprintf("/pp/out.%04d", ctx.Rank),
				recorder.OCreat|recorder.OWronly, 0o644)
			if err != nil {
				return err
			}
			for k := 0; k < opsPerRank; k++ {
				if _, err := ctx.OS.Write(fd, payload.Bytes(make([]byte, block))); err != nil {
					return err
				}
			}
			return ctx.OS.Close(fd)
		case "n1-small":
			fd, err := ctx.OS.Open("/small.dat", recorder.OCreat|recorder.OWronly, 0o644)
			if err != nil {
				return err
			}
			small := block / 16
			if small < 8 {
				small = 8
			}
			for k := 0; k < opsPerRank; k++ {
				off := int64(k)*int64(ctx.Size)*small + int64(ctx.Rank)*small
				if _, err := ctx.OS.Pwrite(fd, payload.Bytes(make([]byte, small)), off); err != nil {
					return err
				}
			}
			return ctx.OS.Close(fd)
		}
		return fmt.Errorf("experiments: unknown workload %q", workload)
	}
	res, err := harness.Run(harness.Config{Ranks: ranks, PPN: ppn, Semantics: sem},
		recorder.Meta{App: "pfsbench", Variant: workload}, body)
	if err != nil {
		return BenchResult{}, err
	}
	if err := res.Err(); err != nil {
		return BenchResult{}, err
	}
	var elapsed uint64
	for _, rs := range res.Trace.PerRank {
		if len(rs) > 0 && rs[len(rs)-1].TEnd > elapsed {
			elapsed = rs[len(rs)-1].TEnd
		}
	}
	st := res.FS.Stats()
	return BenchResult{
		Semantics:     sem,
		Workload:      workload,
		Ranks:         ranks,
		ElapsedNS:     elapsed,
		LockAcquires:  st.LockAcquires,
		LockContended: st.LockContended,
		MetaOps:       st.MetaOps,
		BytesWritten:  st.BytesWritten,
	}, nil
}

// PFSBenchTable renders a semantics × workload sweep, in workload and then
// model order, with the shape the paper's cost argument predicts.
func PFSBenchTable(results []BenchResult) string {
	sort.SliceStable(results, func(i, j int) bool {
		if results[i].Workload != results[j].Workload {
			return results[i].Workload < results[j].Workload
		}
		return results[i].Semantics < results[j].Semantics
	})
	var b strings.Builder
	b.WriteString("Simulated PFS cost by consistency semantics (ablation)\n\n")
	fmt.Fprintf(&b, "%-12s  %-9s  %6s  %12s  %10s  %10s\n",
		"workload", "semantics", "ranks", "elapsed(ms)", "lock acqs", "contended")
	b.WriteString(strings.Repeat("-", 64) + "\n")
	for _, r := range results {
		fmt.Fprintf(&b, "%-12s  %-9s  %6d  %12.2f  %10d  %10d\n",
			r.Workload, r.Semantics, r.Ranks, float64(r.ElapsedNS)/1e6,
			r.LockAcquires, r.LockContended)
	}
	b.WriteString(`
Shape to expect: strong pays one lock RPC per write (slowest on shared
files, especially small strided writes); commit/session skip locking;
file-per-process narrows the gap because there is no sharing to serialize.
`)
	return b.String()
}
