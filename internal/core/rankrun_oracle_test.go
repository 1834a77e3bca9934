package core

import (
	"context"
	"fmt"
	"math/rand"
	"path"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/apps"
)

// Map-based oracles of the per-file pattern passes: each groups a file's
// intervals by rank in a map and sorts every rank's sequence by time, the
// way the passes did before they walked the rank runs of extraction order
// in place. The rank-run passes must reproduce them exactly on every input
// in extraction order (see FileAccesses.Intervals).

// oracleSummary is the per-file digest as the map-based summarize built it.
type oracleSummary struct {
	path       string
	tMin, tMax uint64
	accessors  map[int32]bool
	hasWrites  bool
	layout     Layout
}

func summarizeOracle(fa *FileAccesses, metaThreshold int64) *oracleSummary {
	s := &oracleSummary{path: fa.Path, accessors: make(map[int32]bool)}
	for i := range fa.Intervals {
		if fa.Intervals[i].Write {
			s.hasWrites = true
		}
	}
	byRank := make(map[int32][]*Interval)
	allAccessors := make(map[int32]bool)
	for i := range fa.Intervals {
		iv := &fa.Intervals[i]
		if s.hasWrites && !iv.Write {
			continue
		}
		allAccessors[iv.Rank] = true
		if s.tMin == 0 && s.tMax == 0 {
			s.tMin, s.tMax = iv.T, iv.TEnd
		}
		if iv.T < s.tMin {
			s.tMin = iv.T
		}
		if iv.TEnd > s.tMax {
			s.tMax = iv.TEnd
		}
		if iv.Oe-iv.Os >= metaThreshold {
			byRank[iv.Rank] = append(byRank[iv.Rank], iv)
			s.accessors[iv.Rank] = true
		}
	}
	if len(s.accessors) == 0 {
		s.accessors = allAccessors
	}
	s.layout = LayoutConsecutive
	for _, seq := range byRank {
		sortByTime(seq)
		if l := layoutOfOracle(seq); l > s.layout {
			s.layout = l
		}
	}
	return s
}

func layoutOfOracle(seq []*Interval) Layout {
	if len(seq) < 2 {
		return LayoutConsecutive
	}
	perPhase := make(map[int]int)
	consecutive, monotonic := true, true
	for i := 1; i < len(seq); i++ {
		switch classify(seq[i-1], seq[i]) {
		case Monotonic:
			consecutive = false
		case Random:
			consecutive = false
			monotonic = false
		}
	}
	for i := range seq {
		if seq[i].Phase >= 0 {
			perPhase[seq[i].Phase]++
		}
	}
	cyclic := false
	for ph, n := range perPhase {
		if n >= 2 {
			var blocks []*Interval
			for i := range seq {
				if seq[i].Phase == ph {
					blocks = append(blocks, seq[i])
				}
			}
			sort.Slice(blocks, func(a, b int) bool { return blocks[a].Os < blocks[b].Os })
			for i := 1; i < len(blocks); i++ {
				if blocks[i].Os > blocks[i-1].Oe {
					cyclic = true
				}
			}
		}
	}
	switch {
	case cyclic:
		return LayoutStridedCyclic
	case consecutive:
		return LayoutConsecutive
	case monotonic:
		return LayoutStrided
	default:
		return LayoutRandom
	}
}

func localPatternFileOracle(fa *FileAccesses) PatternMix {
	var mix PatternMix
	byRank := make(map[int32][]*Interval)
	for i := range fa.Intervals {
		iv := &fa.Intervals[i]
		byRank[iv.Rank] = append(byRank[iv.Rank], iv)
	}
	for _, seq := range byRank {
		sortByTime(seq)
		for i := 1; i < len(seq); i++ {
			mix.add(classify(seq[i-1], seq[i]))
		}
	}
	return mix
}

func globalPatternFileOracle(fa *FileAccesses) PatternMix {
	var mix PatternMix
	seq := make([]*Interval, 0, len(fa.Intervals))
	for i := range fa.Intervals {
		seq = append(seq, &fa.Intervals[i])
	}
	sortByTime(seq)
	for i := 1; i < len(seq); i++ {
		mix.add(classify(seq[i-1], seq[i]))
	}
	return mix
}

func familyKeyOracle(p string) string {
	dir := path.Dir(p)
	if dir != "/" && dir != "." {
		return dir
	}
	base := path.Base(p)
	var b strings.Builder
	for _, r := range base {
		if r >= '0' && r <= '9' {
			continue
		}
		b.WriteRune(r)
	}
	return "tpl:" + b.String()
}

func classifyFamilyOracle(fam []*oracleSummary, world int) HighLevelPattern {
	var files []string
	union := make(map[int32]bool)
	layout := LayoutConsecutive
	allSingle := true
	for _, s := range fam {
		files = append(files, s.path)
		for r := range s.accessors {
			union[r] = true
		}
		if len(s.accessors) > 1 {
			allSingle = false
		}
		if s.layout > layout {
			layout = s.layout
		}
	}
	sort.Strings(files)
	x := scaleOf(len(union), world)
	var y Scale
	switch {
	case allSingle && len(union) > 1:
		y = scaleOf(len(fam), world)
	case len(fam) == 1:
		y = One
	default:
		eps := make([][2]uint64, len(fam))
		for i, s := range fam {
			eps[i] = [2]uint64{s.tMin, s.tMax}
		}
		sort.Slice(eps, func(a, b int) bool { return eps[a][0] < eps[b][0] })
		y = One
		for i := 1; i < len(eps); i++ {
			if eps[i][0] < eps[i-1][1] {
				y = scaleOf(len(fam), world)
				break
			}
		}
	}
	return HighLevelPattern{X: x, Y: y, Layout: layout, Files: files}
}

func clusterByTimeOracle(fam []*oracleSummary) [][]*oracleSummary {
	sorted := append([]*oracleSummary(nil), fam...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].tMin < sorted[j].tMin })
	var out [][]*oracleSummary
	var cur []*oracleSummary
	var curHi uint64
	for _, s := range sorted {
		if len(cur) > 0 && s.tMin >= curHi {
			out = append(out, cur)
			cur = nil
		}
		cur = append(cur, s)
		if s.tMax > curHi {
			curHi = s.tMax
		}
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}

// classifyHighLevelOracle is ClassifyHighLevelParallelCtx as it was: map
// summaries, families grouped in a map by familyKey, sorted keys.
func classifyHighLevelOracle(fas []*FileAccesses, opts HLOptions) []HighLevelPattern {
	o := opts.withDefaults()
	families := make(map[string][]*oracleSummary)
	for _, fa := range fas {
		if o.Exclude(fa.Path) || len(fa.Intervals) == 0 {
			continue
		}
		s := summarizeOracle(fa, o.MetaSizeThreshold)
		families[familyKeyOracle(s.path)] = append(families[familyKeyOracle(s.path)], s)
	}
	keys := make([]string, 0, len(families))
	for k := range families {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []HighLevelPattern
	seen := make(map[string]bool)
	for _, k := range keys {
		for _, cluster := range clusterByTimeOracle(families[k]) {
			p := classifyFamilyOracle(cluster, o.WorldSize)
			if seen[p.Key()] {
				for i := range out {
					if out[i].Key() == p.Key() {
						out[i].Files = append(out[i].Files, p.Files...)
					}
				}
				continue
			}
			seen[p.Key()] = true
			out = append(out, p)
		}
	}
	return out
}

// diffRankRunOracles compares every rank-run pass over fas with its
// map-based oracle and describes the first difference ("" when none).
func diffRankRunOracles(fas []*FileAccesses, world int) string {
	const threshold = 512
	for _, fa := range fas {
		if len(fa.Intervals) > 0 {
			got, want := summarize(fa, threshold), summarizeOracle(fa, threshold)
			acc := make(map[int32]bool)
			for _, r := range got.appendAccessors(nil) {
				acc[r] = true
			}
			if got.path != want.path || got.tMin != want.tMin || got.tMax != want.tMax ||
				got.hasWrites != want.hasWrites || got.layout != want.layout ||
				got.accessors != len(acc) || !reflect.DeepEqual(acc, want.accessors) ||
				!slices.IsSorted(got.ranks) {
				return fmt.Sprintf("%s: summary %+v, oracle %+v", fa.Path, got, *want)
			}
		}
		if got, want := localPatternFile(fa), localPatternFileOracle(fa); got != want {
			return fmt.Sprintf("%s: local mix %+v, oracle %+v", fa.Path, got, want)
		}
		if got, want := globalPatternFile(fa), globalPatternFileOracle(fa); got != want {
			return fmt.Sprintf("%s: global mix %+v, oracle %+v", fa.Path, got, want)
		}
	}
	opts := HLOptions{WorldSize: world}
	for _, w := range []int{1, 4} {
		got, err := ClassifyHighLevelParallelCtx(context.Background(), fas, opts, w)
		if err != nil {
			return err.Error()
		}
		if want := classifyHighLevelOracle(fas, opts); !reflect.DeepEqual(got, want) {
			return fmt.Sprintf("workers=%d: patterns\n%+v\noracle\n%+v", w, got, want)
		}
	}
	return ""
}

// extractionOrderViolation describes the first interval of fas out of
// extraction order — each rank's intervals contiguous, ranks ascending,
// each rank's in time order — or returns "".
func extractionOrderViolation(fas []*FileAccesses) string {
	for _, fa := range fas {
		ivs := fa.Intervals
		for i := 1; i < len(ivs); i++ {
			a, b := &ivs[i-1], &ivs[i]
			if b.Rank < a.Rank || (b.Rank == a.Rank && b.T < a.T) {
				return fmt.Sprintf("%s: interval %d (rank %d t=%d) after (rank %d t=%d)", fa.Path, i, b.Rank, b.T, a.Rank, a.T)
			}
		}
	}
	return ""
}

// TestRankRunPassesMatchOraclesRegistry: on every registry app at 8 ranks,
// the serial scan, a 4-worker scan and ExtractSharedCtx all lay intervals
// out in extraction order, and the rank-run passes reproduce the
// map-based oracles over them.
func TestRankRunPassesMatchOraclesRegistry(t *testing.T) {
	ctx := context.Background()
	for _, name := range apps.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg, _ := apps.Lookup(name)
			res, err := apps.Execute(cfg, apps.Options{Ranks: 8, PPN: 2, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			extractions := map[string]func() ([]*FileAccesses, error){
				"serial scan": func() ([]*FileAccesses, error) {
					sc, err := ScanTraceCtx(ctx, res.Trace, 1)
					if err != nil {
						return nil, err
					}
					return sc.Files, nil
				},
				"4-worker scan": func() ([]*FileAccesses, error) {
					sc, err := ScanTraceCtx(ctx, res.Trace, 4)
					if err != nil {
						return nil, err
					}
					return sc.Files, nil
				},
				"ExtractSharedCtx": func() ([]*FileAccesses, error) { return ExtractSharedCtx(ctx, res.Trace, 1) },
			}
			for how, extract := range extractions {
				fas, err := extract()
				if err != nil {
					t.Fatal(err)
				}
				if v := extractionOrderViolation(fas); v != "" {
					t.Fatalf("%s: not in extraction order: %s", how, v)
				}
				if d := diffRankRunOracles(fas, 8); d != "" {
					t.Fatalf("%s: %s", how, d)
				}
			}
		})
	}
}

// randomRankRunFiles builds files in extraction order with the shapes the
// passes branch on: time ties within a rank, phases that repeat or go
// back, blocks out of offset order, sizes around the metadata threshold,
// read-only files, and paths whose family keys hold digits, directories
// and invalid UTF-8.
func randomRankRunFiles(rng *rand.Rand) []*FileAccesses {
	names := []string{"/ckpt_%d.h5", "/out/part%d.bp", "/d%d/x", "/plt\xff%d", "/\xfe%d\xff", "/log%d.txt"}
	var fas []*FileAccesses
	seen := map[string]bool{}
	for f := rng.Intn(12); f >= 0; f-- {
		p := fmt.Sprintf(names[rng.Intn(len(names))], rng.Intn(6))
		if seen[p] {
			continue
		}
		seen[p] = true
		fa := &FileAccesses{Path: p}
		writes := rng.Intn(3) > 0
		base := uint64(rng.Intn(4)) * 1000
		rank := int32(rng.Intn(3))
		for r := 1 + rng.Intn(4); r > 0; r-- {
			t := base + uint64(rng.Intn(50))
			for k := rng.Intn(6); k >= 0; k-- {
				t += uint64(rng.Intn(3)) // ties
				os := int64(rng.Intn(8)) * 512
				n := []int64{64, 256, 511, 512, 1024, 4096}[rng.Intn(6)]
				fa.Intervals = append(fa.Intervals, Interval{
					T: t, TEnd: t + uint64(rng.Intn(20)), Rank: rank,
					Os: os, Oe: os + n, Write: writes && rng.Intn(4) > 0,
					Phase: rng.Intn(5) - 1,
				})
			}
			rank += int32(1 + rng.Intn(3))
		}
		fas = append(fas, fa)
	}
	slices.SortFunc(fas, func(a, b *FileAccesses) int { return strings.Compare(a.Path, b.Path) })
	return fas
}

// TestPropertyRankRunPassesMatchOracles: the same on random files in
// extraction order.
func TestPropertyRankRunPassesMatchOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 400; trial++ {
		fas := randomRankRunFiles(rng)
		if v := extractionOrderViolation(fas); v != "" {
			t.Fatalf("trial %d: generator broke extraction order: %s", trial, v)
		}
		if d := diffRankRunOracles(fas, 1+rng.Intn(8)); d != "" {
			t.Fatalf("trial %d: %s", trial, d)
		}
	}
}

// TestPropertyRankRunPassesOutOfOrder: intervals out of extraction order
// (ranks interleaved, a rank's times shuffled) are put into it by a
// stable sort, so the passes still agree with the oracles wherever the
// oracles' per-rank time order is unique (no time ties within a rank).
func TestPropertyRankRunPassesOutOfOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 400; trial++ {
		fas := randomRankRunFiles(rng)
		for _, fa := range fas {
			for i := range fa.Intervals {
				fa.Intervals[i].T = uint64(i) * 7 // unique per file
			}
			rng.Shuffle(len(fa.Intervals), func(i, j int) {
				fa.Intervals[i], fa.Intervals[j] = fa.Intervals[j], fa.Intervals[i]
			})
		}
		if d := diffRankRunOracles(fas, 4); d != "" {
			t.Fatalf("trial %d: %s", trial, d)
		}
	}
}

// TestFamilyKeyGroupsAsBefore pins the family keys: digits are dropped
// from a root file's name, a directory is its own key, and an invalid
// UTF-8 byte becomes U+FFFD, so names that differ only in digits or in
// which invalid byte they hold share a family.
func TestFamilyKeyGroupsAsBefore(t *testing.T) {
	for p, want := range map[string]string{
		"/ckpt_0001.h5":         "tpl:ckpt_.h",
		"/ckpt_0002.h5":         "tpl:ckpt_.h",
		"/0123":                 "tpl:",
		"/a\xff1":               "tpl:a�",
		"/a\xfe2":               "tpl:a�",
		"/\xe2\x82":             "tpl:��",
		"/héllo7.dat":           "tpl:héllo.dat",
		"/out/part0001.bp":      "/out",
		"/out/\xffsub/7":        "/out/\xffsub",
		"rel9":                  "tpl:rel",
		"/dir2/file3":           "/dir2",
		"/with space 4/":        "/with space 4",
		"/tpl:1":                "tpl:tpl:",
		"/\x00\x7f\x80\xbf\xc0": "tpl:\x00\x7f���",
	} {
		if got := string(appendFamilyKey(nil, p)); got != want || got != familyKeyOracle(p) {
			t.Errorf("family key of %q = %q, want %q (oracle %q)", p, got, want, familyKeyOracle(p))
		}
	}
	rng := rand.New(rand.NewSource(26))
	alphabet := []byte{'/', '0', '9', 'a', '.', 0x80, 0xc3, 0xa9, 0xe2, 0xff}
	for trial := 0; trial < 5000; trial++ {
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		p := string(b)
		if got, want := string(appendFamilyKey([]byte("junk"), p)), "junk"+familyKeyOracle(p); got != want {
			t.Fatalf("family key of %q = %q, oracle %q", p, got, want)
		}
	}
}

// nnExtraction is a synthetic N-N checkpoint extraction: dumps rounds of
// ranks files each, one writer per file writing perFile consecutive
// blocks, every round its own cluster of one family.
func nnExtraction(ranks, dumps, perFile int) []*FileAccesses {
	var fas []*FileAccesses
	for d := 0; d < dumps; d++ {
		for r := 0; r < ranks; r++ {
			fa := &FileAccesses{Path: fmt.Sprintf("/ckpt%04d.rank%05d", d, r)}
			t := uint64(d) * 1_000_000
			for k := 0; k < perFile; k++ {
				t += 10
				fa.Intervals = append(fa.Intervals, Interval{T: t, TEnd: t + 5, Rank: int32(r),
					Os: int64(k) * 4096, Oe: int64(k+1) * 4096, Write: true, Phase: -1})
			}
			fas = append(fas, fa)
		}
	}
	slices.SortFunc(fas, func(a, b *FileAccesses) int { return strings.Compare(a.Path, b.Path) })
	return fas
}

// TestPatternPassAllocsPerFamilyNotFile gates the per-file pattern passes:
// over an N-N extraction they allocate per family and per cluster, so
// quadrupling the files per cluster adds (almost) nothing, and the
// Figure 1 passes allocate nothing per file at all.
func TestPatternPassAllocsPerFamilyNotFile(t *testing.T) {
	const dumps = 8 // clusters; one family
	ctx := context.Background()
	allocs := func(ranks int) (classify, local, global float64) {
		fas := nnExtraction(ranks, dumps, 4)
		opts := HLOptions{WorldSize: ranks}
		classify = testing.AllocsPerRun(5, func() { _, _ = ClassifyHighLevelParallelCtx(ctx, fas, opts, 1) })
		local = testing.AllocsPerRun(5, func() { _, _ = LocalPatternParallelCtx(ctx, fas, 1) })
		global = testing.AllocsPerRun(5, func() { _, _ = GlobalPatternParallelCtx(ctx, fas, 1) })
		return
	}
	c1, l1, g1 := allocs(64)
	c4, l4, g4 := allocs(256)
	t.Logf("classify %v -> %v, local %v -> %v, global %v -> %v allocs at 512 -> 2048 files", c1, c4, l1, l4, g1, g4)
	// Per cluster: its file and rank lists, its pattern key; per family:
	// its member list and key; plus the pattern's file list doubling.
	if c1 > 6*dumps+32 {
		t.Errorf("classify allocates %v times for %d clusters of 64 files", c1, dumps)
	}
	if c4-c1 > 4 {
		t.Errorf("classify allocations grow with files: %v at 512 files, %v at 2048", c1, c4)
	}
	if l4 > l1 || g4 > g1 || l1 > 4 || g1 > 4 {
		t.Errorf("Figure 1 passes allocate per file: local %v -> %v, global %v -> %v", l1, l4, g1, g4)
	}
}

// TestSummarizeAllocatesOnlyForSharedFiles: a file one rank moves data
// in, in extraction order, is summarized without allocating.
func TestSummarizeAllocatesOnlyForSharedFiles(t *testing.T) {
	fa := nnExtraction(1, 1, 16)[0]
	if n := testing.AllocsPerRun(10, func() { _ = summarize(fa, 512) }); n != 0 {
		t.Fatalf("summarize of a single-writer file: %v allocs", n)
	}
}
