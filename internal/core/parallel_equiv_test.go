package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/pfs"
	"repro/internal/recorder"
)

// randomTrace synthesizes a multi-rank trace straight at the record level
// (the property-test analogue of randomFA, one level down): per-rank
// TStart-ordered streams of opens with random flags, sequential and
// positional data ops, seeks, fsyncs, closes, metadata traffic
// (stat/unlink/mkdir/truncate/rename) and occasional enclosing
// library-layer records, across a small shared namespace so ranks collide
// on files, offsets and metadata.
func randomTrace(rng *rand.Rand) *recorder.Trace {
	ranks := 1 + rng.Intn(6)
	paths := []string{"/a", "/b", "/d/x", "/d/y", "/ckpt0001", "/ckpt0002"}
	tr := &recorder.Trace{
		Meta:    recorder.Meta{App: "prop", Ranks: ranks},
		PerRank: make([][]recorder.Record, ranks),
	}
	for r := 0; r < ranks; r++ {
		var rs []recorder.Record
		t := uint64(1 + rng.Intn(5))
		tick := func() (uint64, uint64) {
			start := t
			t += uint64(1 + rng.Intn(9))
			return start, t - 1
		}
		emit := func(layer recorder.Layer, fn recorder.Func, path, path2 string, args ...int64) {
			ts, te := tick()
			rs = append(rs, recorder.Record{
				Rank: int32(r), Layer: layer, Func: fn,
				TStart: ts, TEnd: te, Path: path, Path2: path2, Args: args,
			})
		}
		var fds []int64 // open descriptors, deterministic pick order
		nextFD := int64(3)
		var libEnd uint64 // active library-record window, 0 when none

		nOps := 10 + rng.Intn(60)
		for op := 0; op < nOps; op++ {
			// Occasionally open a library-layer window enclosing the next
			// few POSIX calls, exercising origin attribution.
			if libEnd == 0 && rng.Intn(12) == 0 {
				span := uint64(30 + rng.Intn(40))
				rs = append(rs, recorder.Record{
					Rank: int32(r), Layer: recorder.LayerHDF5, Func: recorder.FuncH5Dwrite,
					TStart: t, TEnd: t + span, Path: paths[rng.Intn(len(paths))],
				})
				libEnd = t + span
				t++
			}
			if libEnd > 0 && t >= libEnd {
				libEnd = 0
			}
			p := paths[rng.Intn(len(paths))]
			switch rng.Intn(12) {
			case 0: // open
				flags := int64(recorder.OCreat | recorder.ORdwr)
				if rng.Intn(3) == 0 {
					flags |= int64(recorder.OTrunc)
				}
				if rng.Intn(4) == 0 {
					flags |= int64(recorder.OAppend)
				}
				fd := nextFD
				nextFD++
				fds = append(fds, fd)
				emit(recorder.LayerPOSIX, recorder.FuncOpen, p, "", flags, 0o644, fd)
			case 1, 2: // sequential write/read
				if len(fds) > 0 {
					fd := fds[rng.Intn(len(fds))]
					fn, n := recorder.FuncWrite, int64(1+rng.Intn(200))
					if rng.Intn(2) == 0 {
						fn = recorder.FuncRead
					}
					emit(recorder.LayerPOSIX, fn, "", "", fd, n, n)
				}
			case 3, 4: // positional write/read
				if len(fds) > 0 {
					fd := fds[rng.Intn(len(fds))]
					fn := recorder.FuncPwrite
					if rng.Intn(2) == 0 {
						fn = recorder.FuncPread
					}
					n, off := int64(1+rng.Intn(150)), int64(rng.Intn(400))
					emit(recorder.LayerPOSIX, fn, "", "", fd, n, off, n)
				}
			case 5: // seek
				if len(fds) > 0 {
					fd := fds[rng.Intn(len(fds))]
					whence := int64(rng.Intn(3))
					off := int64(rng.Intn(300))
					emit(recorder.LayerPOSIX, recorder.FuncLseek, "", "", fd, off, whence, off)
				}
			case 6: // fsync
				if len(fds) > 0 {
					emit(recorder.LayerPOSIX, recorder.FuncFsync, "", "", fds[rng.Intn(len(fds))])
				}
			case 7: // close
				if len(fds) > 0 {
					i := rng.Intn(len(fds))
					emit(recorder.LayerPOSIX, recorder.FuncClose, "", "", fds[i])
					fds = append(fds[:i], fds[i+1:]...)
				}
			case 8: // stat family
				fns := []recorder.Func{recorder.FuncStat, recorder.FuncLstat, recorder.FuncAccess, recorder.FuncOpendir}
				emit(recorder.LayerPOSIX, fns[rng.Intn(len(fns))], p, "")
			case 9: // namespace mutations
				switch rng.Intn(3) {
				case 0:
					emit(recorder.LayerPOSIX, recorder.FuncUnlink, p, "")
				case 1:
					emit(recorder.LayerPOSIX, recorder.FuncMkdir, p, "", 0o755)
				default:
					emit(recorder.LayerPOSIX, recorder.FuncRename, p, paths[rng.Intn(len(paths))])
				}
			case 10: // truncate
				emit(recorder.LayerPOSIX, recorder.FuncTruncate, p, "", int64(rng.Intn(500)))
			case 11: // utility metadata
				emit(recorder.LayerPOSIX, recorder.FuncGetcwd, "", "")
			}
		}
		tr.PerRank[r] = rs
	}
	return tr
}

var equivWorkerCounts = []int{2, 3, 8, 64}

// TestPropertyParallelAnalysisEquivalence drives every sharded pass with
// randomized traces and asserts exact agreement with its serial case (a
// pool of one) — and, for conflicts, with the per-model oracle: extraction,
// conflict detection per model (verdicts and per-file conflict lists),
// pattern classification and mixes, the metadata census and the
// metadata-conflict list.
func TestPropertyParallelAnalysisEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	bg := context.Background()
	models := []pfs.Semantics{pfs.Session, pfs.Commit, pfs.Eventual}
	for trial := 0; trial < 120; trial++ {
		tr := randomTrace(rng)
		fas := extractAll(tr)
		hl := classifyHighLevel(fas, HLOptions{WorldSize: tr.Meta.Ranks})
		global, local := globalPattern(fas), localPattern(fas)
		wantCensus := census(tr)
		metas := metaConflicts(tr)
		verdict := analyzeVerdict(tr)
		wantByFile := make([]map[string][]Conflict, len(models))
		wantSig := make([]ConflictSignature, len(models))
		for i, model := range models {
			wantByFile[i], wantSig[i] = analyzeConflictsOracle(tr, model)
		}

		for _, w := range equivWorkerCounts {
			ctx := fmt.Sprintf("trial %d workers %d", trial, w)
			InvalidateExtraction(tr)
			got, err := ExtractSharedCtx(bg, tr, w)
			if err != nil || !reflect.DeepEqual(fas, got) {
				t.Fatalf("%s: parallel extraction diverges (err %v)", ctx, err)
			}
			ms, err := ConflictsAllForFilesCtx(bg, got, models, w)
			if err != nil {
				t.Fatal(err)
			}
			for i, model := range models {
				if !reflect.DeepEqual(wantByFile[i], ms[i].ByFile) {
					t.Fatalf("%s: conflicts under %v diverge", ctx, model)
				}
				if wantSig[i] != ms[i].Signature {
					t.Fatalf("%s: signature under %v diverges: %+v vs %+v", ctx, model, wantSig[i], ms[i].Signature)
				}
			}
			if got, _ := AnalyzeParallelCtx(bg, tr, w); got != verdict {
				t.Fatalf("%s: verdict diverges: %+v vs %+v", ctx, verdict, got)
			}
			if got, _ := ClassifyHighLevelParallelCtx(bg, fas, HLOptions{WorldSize: tr.Meta.Ranks}, w); !reflect.DeepEqual(hl, got) {
				t.Fatalf("%s: high-level patterns diverge:\n%+v\n%+v", ctx, hl, got)
			}
			if got, _ := GlobalPatternParallelCtx(bg, fas, w); got != global {
				t.Fatalf("%s: global mix diverges: %+v vs %+v", ctx, global, got)
			}
			if got, _ := LocalPatternParallelCtx(bg, fas, w); got != local {
				t.Fatalf("%s: local mix diverges: %+v vs %+v", ctx, local, got)
			}
			if got, _ := MetadataCensusParallelCtx(bg, tr, w); !reflect.DeepEqual(wantCensus, got) {
				t.Fatalf("%s: census diverges", ctx)
			}
			if got, _ := DetectMetadataConflictsParallelCtx(bg, tr, w); !reflect.DeepEqual(metas, got) {
				t.Fatalf("%s: metadata conflicts diverge:\n%v\n%v", ctx, metas, got)
			}
		}
		InvalidateExtraction(tr)
	}
}

// TestPropertyMetaConflictOrderTotal pins the deterministic-merge
// requirement on the metadata pass: the output order must be a total
// function of the trace (no map-iteration leakage), which the parallel
// merge relies on.
func TestPropertyMetaConflictOrderTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 60; trial++ {
		tr := randomTrace(rng)
		want := metaConflicts(tr)
		for rep := 0; rep < 5; rep++ {
			if got := metaConflicts(tr); !reflect.DeepEqual(want, got) {
				t.Fatalf("trial %d: serial metadata conflict order unstable across runs", trial)
			}
		}
	}
}
