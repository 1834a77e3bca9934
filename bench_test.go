package semfs_test

// Benchmarks, one per table and figure of the paper plus ablations for the
// design choices DESIGN.md calls out. Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// Absolute numbers measure this reproduction's simulator, not the paper's
// testbed; the claims are the shapes (who wins, what scales how) — see
// EXPERIMENTS.md.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	semfs "repro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/payload"
	"repro/internal/pfs"
	"repro/internal/recorder"
	"repro/internal/storage"
)

// benchScale keeps full-registry benchmarks affordable.
var benchScale = experiments.Scale{Ranks: 16, PPN: 2, Seed: 1}

var (
	benchOnce    sync.Once
	benchResults *experiments.Results
	benchErr     error
	benchSink    int
)

func allResults(b *testing.B) *experiments.Results {
	b.Helper()
	benchOnce.Do(func() {
		benchResults, benchErr = experiments.RunAll(benchScale)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchResults
}

// BenchmarkTable1SemanticsModels measures the four consistency models'
// write+publish+read path (the mechanism behind Table 1's categorization).
func BenchmarkTable1SemanticsModels(b *testing.B) {
	for _, sem := range pfs.AllSemantics() {
		b.Run(sem.String(), func(b *testing.B) {
			fs := pfs.New(pfs.Options{Semantics: sem})
			w := fs.NewClient(0)
			r := fs.NewClient(1)
			hw, _, err := w.Open("/f", pfs.OCreat|pfs.OWronly, 1)
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, 4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now := uint64(i + 10)
				if _, err := hw.Write(int64(i%64)*4096, payload.Bytes(buf), now); err != nil {
					b.Fatal(err)
				}
				if _, err := hw.Commit(now); err != nil {
					b.Fatal(err)
				}
				hr, _, err := r.Open("/f", pfs.ORdonly, now)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := hr.Read(int64(i%64)*4096, 4096, now); err != nil {
					b.Fatal(err)
				}
				if _, err := hr.Close(now); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable3HighLevelPatterns renders Table 3 for all 25
// configurations from the sweep's analyses.
func BenchmarkTable3HighLevelPatterns(b *testing.B) {
	res := allResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := experiments.Table3(res)
		if len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable4ConflictDetection reads the Table 4 conflict signatures
// (session + commit) of all 25 configurations off the sweep's analyses. It
// times a view; the conflict sweep itself is BenchmarkFusedAnalyze's.
func BenchmarkTable4ConflictDetection(b *testing.B) {
	res := allResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table4Rows(res)
		if len(rows) != 25 {
			b.Fatalf("%d rows", len(rows))
		}
	}
}

// BenchmarkFigure1AccessPatterns renders the global/local pattern mixes
// from the sweep's analyses.
func BenchmarkFigure1AccessPatterns(b *testing.B) {
	res := allResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text, csv := experiments.Figure1(res)
		if len(text) == 0 || len(csv) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure2FlashPatterns regenerates the FLASH offset/time scatter
// series (six panels), extracting both FLASH traces.
func BenchmarkFigure2FlashPatterns(b *testing.B) {
	res := allResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		panels := experiments.Figure2(res)
		if len(panels) != 10 {
			b.Fatalf("%d panels", len(panels))
		}
	}
}

// BenchmarkFigure3MetadataCensus renders the metadata-operation matrix
// from the sweep's analyses.
func BenchmarkFigure3MetadataCensus(b *testing.B) {
	res := allResults(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := experiments.Figure3(res)
		if len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkAppTraceGeneration measures end-to-end simulated runs of
// representative applications (the workload generator itself).
func BenchmarkAppTraceGeneration(b *testing.B) {
	for _, name := range []string{"FLASH-fbs", "FLASH-nofbs", "LAMMPS-ADIOS", "LBANN", "HACC-IO-POSIX"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := semfs.Run(name, semfs.RunOptions{Ranks: 16, PPN: 2, Seed: uint64(i + 1)})
				if err != nil || res.Err() != nil {
					b.Fatal(err, res.Err())
				}
			}
		})
	}
}

// BenchmarkTraceSetup measures trace generation at the shapes of the
// end-to-end benchmark's set-ups, scaled down: the run of ENZO-HDF5 behind
// analyze-records (at a tenth of its steps) and of FLASH-fbs behind
// analyze-ranks (at a third of its ranks), with a fixed seed so B/op and
// allocs/op are deterministic. CI gates those two against BENCH_pr37.json.
func BenchmarkTraceSetup(b *testing.B) {
	for _, c := range []struct {
		app  string
		opts semfs.RunOptions
	}{
		{"ENZO-HDF5", semfs.RunOptions{Ranks: 16, PPN: 8, Steps: 440, Seed: 1}},
		{"FLASH-fbs", semfs.RunOptions{Ranks: 64, PPN: 8, Seed: 1}},
	} {
		b.Run(c.app, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := semfs.Run(c.app, c.opts)
				if err != nil || res.Err() != nil {
					b.Fatal(err, res.Err())
				}
				benchSink += res.Trace.NumRecords()
			}
		})
	}
}

// BenchmarkAnalyzeDir measures the path semanalyze runs: a trace directory
// on disk scanned and analyzed by semfs.AnalyzeDirOn on a pool of one. The
// input is the ENZO-HDF5 run behind analyze-records at a tenth of its steps
// (fixed seed), saved once, so B/op and allocs/op are deterministic; CI
// gates both against BENCH_pr41.json, where a heap object per file or per
// decoded record coming back shows as thousands of allocs/op.
func BenchmarkAnalyzeDir(b *testing.B) {
	res, err := semfs.Run("ENZO-HDF5", semfs.RunOptions{Ranks: 16, PPN: 8, Steps: 440, Seed: 1})
	if err != nil || res.Err() != nil {
		b.Fatal(err, res.Err())
	}
	dir := b.TempDir()
	if err := semfs.SaveTraceOn(storage.OS(), dir, res.Trace); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an, err := semfs.AnalyzeDirOn(storage.OS(), dir, 1)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += an.Report.Records
	}
}

// BenchmarkMetadataConflictDetection measures the §7-extension analysis.
func BenchmarkMetadataConflictDetection(b *testing.B) {
	res := allResults(b)
	tr := res.ByName["MACSio-Silo"].Trace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs, err := core.DetectMetadataConflictsParallelCtx(context.Background(), tr, 1)
		if err != nil || len(cs) == 0 {
			b.Fatal("no metadata dependencies found")
		}
	}
}

// BenchmarkPFSSemanticsThroughput is the ablation of DESIGN.md: simulated
// cost of canonical write workloads across the four consistency models.
// The metric to read is simulated-elapsed-ms (reported as sim_ms/op), not
// host time.
func BenchmarkPFSSemanticsThroughput(b *testing.B) {
	for _, workload := range experiments.PFSBenchWorkloads() {
		for _, sem := range pfs.AllSemantics() {
			b.Run(workload+"/"+sem.String(), func(b *testing.B) {
				var elapsed uint64
				for i := 0; i < b.N; i++ {
					r, err := experiments.PFSBench(workload, sem, 16, 2, 4096, 16)
					if err != nil {
						b.Fatal(err)
					}
					elapsed = r.ElapsedNS
				}
				b.ReportMetric(float64(elapsed)/1e6, "sim_ms/op")
			})
		}
	}
}

// BenchmarkScaleSweep regenerates the §6.1 scale-invariance run: the same
// application at growing rank counts.
func BenchmarkScaleSweep(b *testing.B) {
	for _, ranks := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("FLASH-nofbs/ranks=%d", ranks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := semfs.Run("FLASH-nofbs", semfs.RunOptions{Ranks: ranks, PPN: 8, Seed: 1})
				if err != nil || res.Err() != nil {
					b.Fatal(err, res.Err())
				}
				_, sig := sessionConflicts(b, res.Trace)
				if !sig.WAWDiff {
					b.Fatal("scale run lost the WAW-D signature")
				}
			}
		})
	}
}

// BenchmarkTraceEncodeDecode measures the columnar trace encoder, the
// writer behind SaveTraceOn.
func BenchmarkTraceEncodeDecode(b *testing.B) {
	res := allResults(b)
	tr := res.ByName["FLASH-nofbs"].Trace
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var n int
			for rank := range tr.PerRank {
				var buf countWriter
				if err := tr.WriteStream(&buf, rank); err != nil {
					b.Fatal(err)
				}
				n += buf.n
			}
			b.SetBytes(int64(n))
		}
	})
}

// sessionConflicts detects the trace's session-semantics conflicts over one
// extraction.
func sessionConflicts(b *testing.B, tr *recorder.Trace) (map[string][]core.Conflict, core.ConflictSignature) {
	b.Helper()
	return core.ConflictsOverFiles(extract(b, tr), pfs.Session)
}

type countWriter struct{ n int }

func (w *countWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

func (w *countWriter) WriteString(s string) (int, error) { w.n += len(s); return len(s), nil }

// BenchmarkHappensBefore measures happens-before reconstruction and
// conflict-order validation on a communication-heavy trace, and the
// happens-before build alone on the analyze-ranks shape (FLASH-fbs at 192
// ranks, 183 collective instances of 192 participants), scanned once
// outside the loop. The latter's B/op is gated in CI: participants of
// consecutive collectives share one clock, and a clock per event would
// allocate about 27 MB.
func BenchmarkHappensBefore(b *testing.B) {
	b.Run("validate/MACSio-Silo", func(b *testing.B) {
		res := allResults(b)
		tr := res.ByName["MACSio-Silo"].Trace
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hb, err := core.BuildHB(tr)
			if err != nil {
				b.Fatal(err)
			}
			byFile, _ := sessionConflicts(b, tr)
			for _, cs := range byFile {
				if un := core.ValidateConflicts(hb, cs); len(un) > 0 {
					b.Fatal("unsynchronized conflicts")
				}
			}
		}
	})
	b.Run("build/FLASH-fbs-192", func(b *testing.B) {
		res, err := semfs.Run("FLASH-fbs", semfs.RunOptions{Ranks: 192, PPN: 8, Seed: 1})
		if err != nil || res.Err() != nil {
			b.Fatal(err, res.Err())
		}
		sc, err := core.ScanTraceCtx(context.Background(), res.Trace, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sc.HB(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAnalyzeParallel runs the analysis over the full registry trace
// set at growing pool sizes (workers=1 is the serial case). Speedup only
// materializes with free hardware threads: on a machine with >=8 cores
// expect workers=8 to finish the sweep at least 2x faster than workers=1;
// on a 1-2 core host the larger pools cost roughly the serial time plus
// scheduling noise. Record the host's core count with the numbers.
func BenchmarkAnalyzeParallel(b *testing.B) {
	res := allResults(b)
	sweep := func(b *testing.B, workers int) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			for _, name := range res.Ordered {
				an, err := semfs.AnalyzeParallelCtx(context.Background(), res.ByName[name].Trace, workers)
				if err != nil || len(an.Patterns) == 0 {
					b.Fatalf("%s: empty analysis (err %v)", name, err)
				}
				benchSink += an.Global.Total()
			}
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallel/workers=%d", workers), func(b *testing.B) {
			sweep(b, workers)
		})
	}

	// Telemetry overhead: the same sweep with the obs registry disabled
	// (every instrument short-circuits on one atomic load) versus enabled.
	// The acceptance bar is disabled-vs-baseline within ~2%; the sub-
	// benchmarks above run with the registry in its default enabled state,
	// so compare "telemetry=off" here against "parallel/workers=4" there.
	reg := obs.Default()
	for _, on := range []bool{false, true} {
		name := "telemetry=off"
		if on {
			name = "telemetry=on"
		}
		b.Run(name, func(b *testing.B) {
			reg.SetEnabled(on)
			defer reg.SetEnabled(true) // the default, which no CLI changes
			sweep(b, 4)
		})
	}
}

// BenchmarkFusedAnalyze measures the fused single-sweep multi-model
// conflict engine over the full registry at benchScale, in two shapes:
//
//   - fused-cold: one extraction plus one sweep per trace;
//   - fused-warm: one sweep per trace, over extractions made before the
//     timer starts.
func BenchmarkFusedAnalyze(b *testing.B) {
	res := allResults(b)
	models := []pfs.Semantics{pfs.Session, pfs.Commit}
	sweep := func(b *testing.B, fas []*core.FileAccesses) {
		ms, err := core.ConflictsAllForFilesCtx(context.Background(), fas, models, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, mc := range ms {
			if mc.Signature.Any() {
				benchSink++
			}
		}
	}
	b.Run("fused-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, name := range res.Ordered {
				sweep(b, extract(b, res.ByName[name].Trace))
			}
		}
	})
	b.Run("fused-warm", func(b *testing.B) {
		fas := make([][]*core.FileAccesses, len(res.Ordered))
		for j, name := range res.Ordered {
			fas[j] = extract(b, res.ByName[name].Trace)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, f := range fas {
				sweep(b, f)
			}
		}
	})
}

// extract is one scan's extraction of tr.
func extract(b *testing.B, tr *recorder.Trace) []*core.FileAccesses {
	b.Helper()
	fas, err := core.ExtractSharedCtx(context.Background(), tr, 1)
	if err != nil {
		b.Fatal(err)
	}
	return fas
}

// BenchmarkExtract measures offset reconstruction over a large trace.
func BenchmarkExtract(b *testing.B) {
	res := allResults(b)
	tr := res.ByName["FLASH-fbs"].Trace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(extract(b, tr)) == 0 {
			b.Fatal("no files")
		}
	}
}
