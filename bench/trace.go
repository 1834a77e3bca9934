package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	semfs "repro"
	"repro/internal/core"
	"repro/internal/pfs"
	"repro/internal/recorder"
	"repro/internal/report"
	"repro/internal/storage"
)

// The traced run makes the same calls the CLIs make, in the same order,
// in-process through each module's public functions, and times each call
// from outside: nothing inside the program is instrumented.

// span is one timed call. Parent is an index into spanLog.spans, -1 for an
// iteration's root.
type span struct {
	name       string
	start, end time.Duration // since the log's origin
	parent     int
	workload   string
	iter       int
	tid        int // one lane per traced iteration in the trace viewer
}

// spanLog keeps spans in memory; write exports them when the run ends.
type spanLog struct {
	origin time.Time
	spans  []span
	lanes  int
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) begin(workload string, iter, tid, parent int, name string) int {
	l.spans = append(l.spans, span{name: name, start: time.Since(l.origin), parent: parent,
		workload: workload, iter: iter, tid: tid})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) { l.spans[id].end = time.Since(l.origin) }

// write exports the spans as Chrome trace_event JSON (complete "X" events),
// which chrome://tracing and Perfetto open directly. Each event's args carry
// its parent span id and its self time: its duration minus the part its
// child spans cover.
func (l *spanLog) write(path string) error {
	children := make([]time.Duration, len(l.spans))
	for _, s := range l.spans {
		if s.parent >= 0 {
			children[s.parent] += s.end - s.start
		}
	}
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(l.spans))
	for i, s := range l.spans {
		events[i] = event{Name: s.name, Cat: s.workload, Ph: "X",
			Ts: micros(s.start), Dur: micros(s.end - s.start), Pid: 1, Tid: s.tid,
			Args: map[string]any{"id": i, "parent": s.parent, "workload": s.workload,
				"iteration": s.iter, "self_us": micros(s.end - s.start - children[i])}}
	}
	b, err := json.MarshalIndent(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

const mib = 1 << 20

// tracedIter accumulates one traced iteration's per-layer values.
type tracedIter struct {
	log      *spanLog
	workload string
	iter     int
	tid      int
	root     int
	vals     map[string]float64
	stageSum float64
	gcs      uint32
}

// stage times fn as one call into a layer. Forced GCs and ReadMemStats run
// outside the timed interval on both sides: <name>_alloc_mb is the
// TotalAlloc delta across the call, and <name>_live_mb is how much the live
// heap grew across it, read after forced GCs that follow the call. Calls
// directly under the iteration's root add to pipeline.stage_sum_s;
// breakdown calls (under the breakdown span) do not. Repeated names add up.
func (it *tracedIter) stage(parent int, name string, fn func() error) error {
	var before, after, live runtime.MemStats
	fullGC()
	runtime.ReadMemStats(&before)
	id := it.log.begin(it.workload, it.iter, it.tid, parent, name)
	err := fn()
	it.log.end(id)
	runtime.ReadMemStats(&after)
	fullGC()
	runtime.ReadMemStats(&live)
	s := it.log.spans[id]
	secs := (s.end - s.start).Seconds()
	it.vals[name+"_s"] += secs
	it.vals[name+"_alloc_mb"] += float64(after.TotalAlloc-before.TotalAlloc) / mib
	it.vals[name+"_live_mb"] += (float64(live.HeapAlloc) - float64(before.HeapAlloc)) / mib
	it.gcs += after.NumGC - before.NumGC
	if parent == it.root {
		it.stageSum += secs
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// fullGC collects twice: objects a sync.Pool still holds survive the first
// collection, and counting them as live would charge them to the next call.
func fullGC() {
	runtime.GC()
	runtime.GC()
}

type step struct {
	name string
	fn   func() error
}

// stages runs steps in order under parent, stopping at the first error.
func (it *tracedIter) stages(parent int, steps ...step) error {
	for _, s := range steps {
		if err := it.stage(parent, s.name, s.fn); err != nil {
			return err
		}
	}
	return nil
}

// traceRun runs b.traced in-process iterations of the workload and stores
// the per-layer medians in PerLayer. A traced iteration that fails, or whose
// counts disagree with the CLI's reference output, marks the result
// incorrect.
func (b *bench) traceRun(ctx context.Context, t *task) {
	fmt.Fprintf(b.progress, "%s: traced run, %d iterations\n", t.w.name, b.traced)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs)) // the children's parallelism
	samples := map[string][]float64{}
	for i := 0; i < b.traced; i++ {
		b.spans.lanes++
		it := &tracedIter{log: b.spans, workload: t.w.name, iter: i, tid: b.spans.lanes, vals: map[string]float64{}}
		it.root = b.spans.begin(t.w.name, i, it.tid, -1, "iteration")
		err := b.traceSetup(t, it)
		if err == nil {
			err = traceSemanalyze(ctx, t, it)
		}
		b.spans.end(it.root)
		if err == nil && int(it.vals["count.records"]) != t.ref.records {
			err = fmt.Errorf("%v records in-process, %d from the CLI", it.vals["count.records"], t.ref.records)
		}
		if err != nil {
			t.res.problem("traced iteration %d: %v", i, err)
			return
		}
		it.vals["runtime.gc_cycles"] = float64(it.gcs)
		it.vals["pipeline.stage_sum_s"] = it.stageSum
		for k, v := range it.vals {
			samples[k] = append(samples[k], v)
		}
	}
	t.res.PerLayer = map[string]float64{}
	for k, vs := range samples {
		t.res.PerLayer[k] = median(vs)
	}
	t.res.PerLayer["pipeline.unattributed_s"] = t.res.WallQ[1] - t.res.PerLayer["pipeline.stage_sum_s"]
}

// backend is the storage stack every CLI uses for -backend osdisk.
func backend() storage.Backend { return storage.NewRetry(storage.OS(), storage.RetryOptions{}) }

// traceSetup mirrors the semtrace command of the workload's set-up: run the
// app, then save its trace. Its calls sit under a "setup" span and are not
// part of the stage sum, since the loop never runs them; the saved trace
// must be byte-identical to the one semtrace wrote.
func (b *bench) traceSetup(t *task, it *tracedIter) error {
	dir := filepath.Join(t.dir, "traced")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	su := it.log.begin(t.w.name, it.iter, it.tid, it.root, "setup")
	gcs := it.gcs
	defer func() { it.gcs = gcs }() // runtime.gc_cycles counts the analysis's collections only
	var res *semfs.Result
	err := it.stages(su,
		step{"apps.run", func() (err error) {
			res, err = semfs.Run(t.w.app, semfs.RunOptions{Ranks: t.w.ranks, PPN: t.w.ppn, Seed: b.seed, Steps: t.w.steps})
			if err == nil {
				err = res.Err()
			}
			return err
		}},
		step{"colfmt.save", func() error { return semfs.SaveTraceOn(backend(), dir, res.Trace) }},
	)
	it.log.end(su)
	if err != nil {
		return err
	}
	size, err := treeSize(dir)
	if err != nil {
		return err
	}
	it.vals["colfmt.bytes_per_record"] = float64(size) / float64(res.Trace.NumRecords())
	got, err := hashTree(dir)
	if err != nil {
		return err
	}
	want, err := hashTree(t.input())
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("the in-process trace differs from the one semtrace wrote")
	}
	return nil
}

// traceSemanalyze mirrors semanalyze -report: load, the report (whose
// extraction is the cold one, since the trace was just loaded), the
// parallel analysis over the warm extraction, then happens-before
// validation. The breakdown sub-pass then times the analysis's four passes
// and validation's three steps one at a time.
func traceSemanalyze(ctx context.Context, t *task, it *tracedIter) error {
	var tr *semfs.Trace
	var fas []*core.FileAccesses
	var rep *report.RunReport
	var an *semfs.Analysis
	var unordered []core.Conflict
	defer func() {
		if tr != nil {
			core.InvalidateExtraction(tr)
		}
	}()
	err := it.stages(it.root,
		step{"colfmt.load", func() (err error) { tr, err = semfs.LoadTraceOn(backend(), t.input(), 0); return err }},
		step{"core.extract", func() (err error) { fas, err = core.ExtractSharedCtx(ctx, tr, 1); return err }},
		step{"report.build", func() error { rep = report.BuildRunReportFrom(tr, fas); return nil }},
		step{"report.render", func() error { _ = rep.Render(); return nil }},
		step{"semfs.analyze", func() (err error) { an, err = semfs.AnalyzeParallelCtx(ctx, tr, 0); return err }},
		step{"semfs.validate", func() (err error) { unordered, err = semfs.ValidateSynchronization(tr); return err }},
	)
	if err != nil {
		return err
	}

	bd := it.log.begin(t.w.name, it.iter, it.tid, it.root, "breakdown")
	var hb *core.HB
	var sessionByFile map[string][]core.Conflict
	hbUnordered := 0
	err = it.stages(bd,
		step{"core.conflicts", func() error {
			_, err := core.ConflictsAllForFilesCtx(ctx, fas, []pfs.Semantics{pfs.Session, pfs.Commit}, 0)
			return err
		}},
		step{"core.patterns", func() error {
			if _, err := core.ClassifyHighLevelParallelCtx(ctx, fas, core.HLOptions{WorldSize: tr.Meta.Ranks}, 0); err != nil {
				return err
			}
			if _, err := core.GlobalPatternParallelCtx(ctx, fas, 0); err != nil {
				return err
			}
			_, err := core.LocalPatternParallelCtx(ctx, fas, 0)
			return err
		}},
		step{"core.census", func() error { _, err := core.MetadataCensusParallelCtx(ctx, tr, 0); return err }},
		step{"core.metaconflicts", func() error { _, err := core.DetectMetadataConflictsParallelCtx(ctx, tr, 0); return err }},
		step{"core.hb_build", func() (err error) { hb, err = core.BuildHB(tr); return err }},
		step{"core.validate_sweep", func() error { sessionByFile, _ = core.ConflictsOverFiles(fas, pfs.Session); return nil }},
		step{"core.hb_validate", func() error {
			for _, cs := range sessionByFile {
				hbUnordered += len(core.ValidateConflicts(hb, cs))
			}
			return nil
		}},
	)
	it.log.end(bd)
	if err != nil {
		return err
	}

	if got := an.Verdict.Weakest.String(); got != t.w.verdict {
		return fmt.Errorf("in-process verdict %s, want %s", got, t.w.verdict)
	}
	if hbUnordered != len(unordered) {
		return fmt.Errorf("breakdown found %d unordered pairs, ValidateSynchronization %d", hbUnordered, len(unordered))
	}
	countTrace(it, tr)
	it.vals["count.files"] = float64(len(fas))
	for _, fa := range fas {
		it.vals["count.accesses"] += float64(len(fa.Intervals))
	}
	for model, byFile := range map[string]map[string][]core.Conflict{"session": an.SessionConflicts, "commit": an.CommitConflicts} {
		n := 0
		for _, cs := range byFile {
			n += len(cs)
		}
		it.vals["count.conflicts_"+model] = float64(n)
		if cli := cliConflicts(t.ref.stdout, model); cli != n {
			return fmt.Errorf("%d %s conflicts in-process, %d printed by semanalyze", n, model, cli)
		}
	}
	it.vals["count.meta_conflicts"] = float64(len(an.MetaConflicts))
	it.vals["count.hb_unordered"] = float64(len(unordered))
	return nil
}

// cliConflicts reads semanalyze's "Conflicts under <model> semantics: N"
// line; -1 when absent.
func cliConflicts(stdout []byte, model string) int {
	for _, m := range conflictsRE.FindAllSubmatch(stdout, -1) {
		if string(m[1]) == model {
			n, _ := strconv.Atoi(string(m[2]))
			return n
		}
	}
	return -1
}

// countTrace records the trace's size and its MPI events, which are the
// nodes happens-before reconstruction works on.
func countTrace(it *tracedIter, tr *recorder.Trace) {
	it.vals["count.records"] = float64(tr.NumRecords())
	for _, rs := range tr.PerRank {
		for i := range rs {
			if rs[i].Layer != recorder.LayerMPI {
				continue
			}
			it.vals["count.mpi_events"]++
			if f := rs[i].Func; f != recorder.FuncMPISend && f != recorder.FuncMPIRecv {
				it.vals["count.mpi_collectives"]++
			}
		}
	}
}
