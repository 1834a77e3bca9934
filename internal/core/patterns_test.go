package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func seqIv(rank int32, t uint64, os, n int64, write bool) Interval {
	return Interval{T: t, TEnd: t + 1, Rank: rank, Os: os, Oe: os + n, Write: write, Phase: -1}
}

func TestClassifyTransitions(t *testing.T) {
	a := seqIv(0, 1, 0, 100, true)
	cases := []struct {
		next Interval
		want accessClass
	}{
		{seqIv(0, 2, 100, 50, true), classConsecutive},
		{seqIv(0, 2, 150, 50, true), classMonotonic},
		{seqIv(0, 2, 50, 50, true), classRandom}, // overlap
		{seqIv(0, 2, 0, 50, true), classRandom},  // rewind
	}
	for _, c := range cases {
		if got := classify(&a, &c.next); got != c.want {
			t.Errorf("classify(next at %d) = %v, want %v", c.next.Os, got, c.want)
		}
	}
}

func TestLocalVsGlobalPattern(t *testing.T) {
	// Two ranks each reading the file consecutively, interleaved in time —
	// the LBANN situation: local consecutive, global random.
	fa := &FileAccesses{Path: "/data"}
	for i := int64(0); i < 10; i++ {
		fa.Intervals = append(fa.Intervals,
			seqIv(0, uint64(10*i+1), i*100, 100, false),
			seqIv(1, uint64(10*i+2), i*100, 100, false),
		)
	}
	fas := []*FileAccesses{fa}
	local := localPattern(fas)
	if local.Consecutive != 18 || local.Random != 0 || local.Monotonic != 0 {
		t.Fatalf("local mix = %+v", local)
	}
	global := globalPattern(fas)
	if global.Random == 0 {
		t.Fatalf("global mix should contain random transitions: %+v", global)
	}
	lc, _, lr := local.Pct()
	if lc != 100 || lr != 0 {
		t.Fatalf("local pct = %v/%v", lc, lr)
	}
}

func TestPatternMixPct(t *testing.T) {
	m := PatternMix{Consecutive: 3, Monotonic: 1, Random: 0}
	c, mo, r := m.Pct()
	if c != 75 || mo != 25 || r != 0 {
		t.Fatalf("pct = %v %v %v", c, mo, r)
	}
	empty := PatternMix{}
	c, _, _ = empty.Pct()
	if c != 100 {
		t.Fatalf("empty mix should be 100%% consecutive, got %v", c)
	}
}

func hlFA(path string, ivs ...Interval) *FileAccesses {
	return &FileAccesses{Path: path, Intervals: ivs}
}

func TestHighLevelFilePerProcess(t *testing.T) {
	// 4 ranks, 4 files, one writer each, concurrent → N-N consecutive.
	var fas []*FileAccesses
	for r := int32(0); r < 4; r++ {
		fas = append(fas, hlFA(
			"/ckpt.000"+string(rune('0'+r)),
			seqIv(r, 10, 0, 1024, true),
			seqIv(r, 20, 1024, 1024, true),
		))
	}
	ps := classifyHighLevel(fas, HLOptions{WorldSize: 4})
	if len(ps) != 1 {
		t.Fatalf("patterns = %+v", ps)
	}
	if ps[0].Key() != "N-N consecutive" {
		t.Fatalf("pattern = %q", ps[0].Key())
	}
}

func TestHighLevelSharedSingleFile(t *testing.T) {
	// All 4 ranks write disjoint strided segments of one file → N-1 strided.
	fa := hlFA("/shared.h5")
	for r := int32(0); r < 4; r++ {
		fa.Intervals = append(fa.Intervals,
			seqIv(r, uint64(10+r), int64(r)*1024, 1024, true),
			seqIv(r, uint64(20+r), 4096+int64(r)*1024, 1024, true),
		)
	}
	ps := classifyHighLevel([]*FileAccesses{fa}, HLOptions{WorldSize: 4})
	if len(ps) != 1 || ps[0].Key() != "N-1 strided" {
		t.Fatalf("patterns = %+v", ps)
	}
}

func TestHighLevelCheckpointSeriesIsX1(t *testing.T) {
	// Sequential series of shared files (FLASH checkpoints) → N-1, not N-M.
	var fas []*FileAccesses
	for f := 0; f < 3; f++ {
		fa := hlFA("/chk_000" + string(rune('0'+f)))
		base := uint64(1000 * f)
		for r := int32(0); r < 4; r++ {
			fa.Intervals = append(fa.Intervals,
				seqIv(r, base+uint64(r)+1, int64(r)*2048, 1024, true))
		}
		fas = append(fas, fa)
	}
	ps := classifyHighLevel(fas, HLOptions{WorldSize: 4})
	if len(ps) != 1 || ps[0].X != N || ps[0].Y != One {
		t.Fatalf("patterns = %+v", ps)
	}
}

func TestHighLevelConcurrentMultiFile(t *testing.T) {
	// MACSio shape: 4 ranks over 2 concurrent shared files → N-M.
	var fas []*FileAccesses
	for f := 0; f < 2; f++ {
		fa := hlFA("/dump.00" + string(rune('0'+f)) + ".silo")
		for g := int32(0); g < 2; g++ {
			r := int32(f)*2 + g
			fa.Intervals = append(fa.Intervals,
				seqIv(r, uint64(10+r), 512+int64(g)*1024, 1024, true),
				seqIv(r, uint64(20+r), 512+2048+int64(g)*1024, 1024, true))
		}
		fas = append(fas, fa)
	}
	ps := classifyHighLevel(fas, HLOptions{WorldSize: 4})
	if len(ps) != 1 || ps[0].X != N || ps[0].Y != M || ps[0].Layout != LayoutStrided {
		t.Fatalf("patterns = %+v", ps)
	}
}

func TestHighLevelReadOnlyUsesReaders(t *testing.T) {
	// LBANN shape: every rank reads the whole shared file → N-1 consecutive.
	fa := hlFA("/train.bin")
	for r := int32(0); r < 4; r++ {
		for i := int64(0); i < 4; i++ {
			fa.Intervals = append(fa.Intervals,
				seqIv(r, uint64(10+int(i)*4+int(r)), i*4096, 4096, false))
		}
	}
	ps := classifyHighLevel([]*FileAccesses{fa}, HLOptions{WorldSize: 4})
	if len(ps) != 1 || ps[0].Key() != "N-1 consecutive" {
		t.Fatalf("patterns = %+v", ps)
	}
}

func TestHighLevelRank0Only(t *testing.T) {
	fa := hlFA("/out.log",
		seqIv(0, 10, 0, 100, true),
		seqIv(0, 20, 100, 100, true))
	ps := classifyHighLevel([]*FileAccesses{fa}, HLOptions{WorldSize: 4})
	if len(ps) != 1 || ps[0].Key() != "1-1 consecutive" {
		t.Fatalf("patterns = %+v", ps)
	}
}

func TestHighLevelStridedCyclic(t *testing.T) {
	// A rank writing several non-adjacent blocks within one library phase
	// (block-cyclic collective buffering) → strided cyclic.
	fa := hlFA("/vpic.h5")
	for r := int32(0); r < 2; r++ {
		for blk := int64(0); blk < 3; blk++ {
			ivl := seqIv(r, uint64(10+r), (blk*2+int64(r))*1024, 1024, true)
			ivl.Phase = 5 // same enclosing collective call
			fa.Intervals = append(fa.Intervals, ivl)
		}
	}
	ps := classifyHighLevel([]*FileAccesses{fa}, HLOptions{WorldSize: 2})
	if len(ps) != 1 || ps[0].Layout != LayoutStridedCyclic {
		t.Fatalf("patterns = %+v", ps)
	}
}

func TestHighLevelExcludesInputs(t *testing.T) {
	fas := []*FileAccesses{
		hlFA("/in/config.txt", seqIv(0, 1, 0, 100, false)),
		hlFA("/out.dat", seqIv(0, 10, 0, 100, true)),
	}
	ps := classifyHighLevel(fas, HLOptions{WorldSize: 4})
	if len(ps) != 1 || len(ps[0].Files) != 1 || ps[0].Files[0] != "/out.dat" {
		t.Fatalf("patterns = %+v", ps)
	}
}

func TestHighLevelMetadataFiltered(t *testing.T) {
	// Small library-metadata writes must not demote a strided layout to
	// random.
	fa := hlFA("/chk.h5")
	for r := int32(0); r < 2; r++ {
		fa.Intervals = append(fa.Intervals,
			seqIv(r, uint64(10+r), 96, 272, true), // metadata, below threshold
			seqIv(r, uint64(20+r), 16384+int64(r)*4096, 4096, true),
			seqIv(r, uint64(30+r), 96, 272, true), // metadata again
			seqIv(r, uint64(40+r), 16384+8192+int64(r)*4096, 4096, true),
		)
	}
	ps := classifyHighLevel([]*FileAccesses{fa}, HLOptions{WorldSize: 2})
	if len(ps) != 1 || ps[0].Layout != LayoutStrided {
		t.Fatalf("patterns = %+v", ps)
	}
}

func TestScaleOf(t *testing.T) {
	if scaleOf(1, 64) != One || scaleOf(64, 64) != N || scaleOf(6, 64) != M || scaleOf(65, 64) != N {
		t.Fatal("scaleOf broken")
	}
}

func TestLayoutStrings(t *testing.T) {
	if LayoutConsecutive.String() != "consecutive" ||
		LayoutStrided.String() != "strided" ||
		LayoutStridedCyclic.String() != "strided cyclic" ||
		LayoutRandom.String() != "random" {
		t.Fatal("layout names broken")
	}
	if One.String() != "1" || M.String() != "M" || N.String() != "N" {
		t.Fatal("scale names broken")
	}
	p := HighLevelPattern{X: N, Y: One, Layout: LayoutStrided}
	if p.Key() != "N-1 strided" {
		t.Fatalf("Key() = %q", p.Key())
	}
}

// TestSortByTimeMatchesSortSlice: the typed sortByTime leaves every
// sequence, (time, rank) ties included, in exactly the order the
// reflect-based sort.Slice over the same key produced, so the transition
// mixes read off it are unchanged.
func TestSortByTimeMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(2000)
		ivs := make([]Interval, n)
		for i := range ivs {
			// Few distinct keys, so most elements tie with others.
			ivs[i] = Interval{T: uint64(rng.Intn(8)), Rank: int32(rng.Intn(3)), Os: int64(i)}
		}
		got := make([]*Interval, n)
		for i := range ivs {
			got[i] = &ivs[i]
		}
		want := slices.Clone(got)
		sortByTime(got)
		sort.Slice(want, func(a, b int) bool {
			if want[a].T != want[b].T {
				return want[a].T < want[b].T
			}
			return want[a].Rank < want[b].Rank
		})
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d): sortByTime order differs from sort.Slice's", trial, n)
		}
	}
}
