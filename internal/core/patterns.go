package core

import (
	"cmp"
	"path"
	"slices"
	"sort"
	"strings"
)

// AccessClass categorizes the transition between two successive accesses
// (§6.2): consecutive (the next access starts exactly where the previous
// ended), monotonic (it starts strictly beyond), or random.
type AccessClass int

const (
	Consecutive AccessClass = iota
	Monotonic
	Random
)

func (c AccessClass) String() string {
	switch c {
	case Consecutive:
		return "consecutive"
	case Monotonic:
		return "monotonic"
	default:
		return "random"
	}
}

// PatternMix is one bar of Figure 1: the share of transitions per class.
type PatternMix struct {
	Consecutive int
	Monotonic   int
	Random      int
}

// Total returns the number of classified transitions.
func (m PatternMix) Total() int { return m.Consecutive + m.Monotonic + m.Random }

// Pct returns the percentage mix (0-100, floats) as consecutive, monotonic,
// random. A mix with no transitions reports 100% consecutive (a single
// access is trivially sequential).
func (m PatternMix) Pct() (float64, float64, float64) {
	t := m.Total()
	if t == 0 {
		return 100, 0, 0
	}
	return 100 * float64(m.Consecutive) / float64(t),
		100 * float64(m.Monotonic) / float64(t),
		100 * float64(m.Random) / float64(t)
}

// plus returns the element-wise sum of two mixes (class counts are
// additive across files, which is what makes the per-file shard merge
// exact).
func (m PatternMix) plus(o PatternMix) PatternMix {
	return PatternMix{
		Consecutive: m.Consecutive + o.Consecutive,
		Monotonic:   m.Monotonic + o.Monotonic,
		Random:      m.Random + o.Random,
	}
}

func (m *PatternMix) add(c AccessClass) {
	switch c {
	case Consecutive:
		m.Consecutive++
	case Monotonic:
		m.Monotonic++
	default:
		m.Random++
	}
}

func classify(prev, next *Interval) AccessClass {
	switch {
	case next.Os == prev.Oe:
		return Consecutive
	case next.Os > prev.Oe:
		return Monotonic
	default:
		return Random
	}
}

// localPatternFile computes one file's local transition mix.
func localPatternFile(fa *FileAccesses) PatternMix {
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

// globalPatternFile computes one file's global transition mix.
func globalPatternFile(fa *FileAccesses) PatternMix {
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

// sortByTime orders accesses by (entry time, rank) with a typed
// comparator. slices.SortFunc runs the same pattern-defeating quicksort as
// sort.Slice, so equal keys keep sort.Slice's order, which the rendered
// reports pin (TestSortByTimeMatchesSortSlice).
func sortByTime(seq []*Interval) {
	slices.SortFunc(seq, func(a, b *Interval) int {
		if c := cmp.Compare(a.T, b.T); c != 0 {
			return c
		}
		return cmp.Compare(a.Rank, b.Rank)
	})
}

// Scale is one axis of the paper's X-Y notation.
type Scale int

const (
	One Scale = iota
	M
	N
)

func (s Scale) String() string {
	switch s {
	case One:
		return "1"
	case M:
		return "M"
	default:
		return "N"
	}
}

// Layout is Table 3's in-file layout category.
type Layout int

const (
	LayoutConsecutive Layout = iota
	LayoutStrided
	LayoutStridedCyclic
	LayoutRandom
)

func (l Layout) String() string {
	switch l {
	case LayoutConsecutive:
		return "consecutive"
	case LayoutStrided:
		return "strided"
	case LayoutStridedCyclic:
		return "strided cyclic"
	default:
		return "random"
	}
}

// HighLevelPattern is one Table 3 entry for an application: X processes
// accessing Y files with the given in-file layout.
type HighLevelPattern struct {
	X, Y   Scale
	Layout Layout
	Files  []string // the file family behind this entry
}

// Key renders the pattern as the paper writes it, e.g. "N-1 strided".
func (p HighLevelPattern) Key() string {
	return p.X.String() + "-" + p.Y.String() + " " + p.Layout.String()
}

// HLOptions tunes the high-level classification.
type HLOptions struct {
	// WorldSize is the number of ranks in the run (required).
	WorldSize int
	// Exclude filters out files that should not be classified (defaults to
	// configuration-input files under "/in/"; the paper likewise excludes
	// input-reading patterns from Table 3).
	Exclude func(path string) bool
	// MetaSizeThreshold drops accesses smaller than this from layout
	// classification (library metadata; the paper tolerates "a small amount
	// of extra metadata" in its strided categories). Default 512 bytes.
	MetaSizeThreshold int64
}

func (o HLOptions) withDefaults() HLOptions {
	if o.Exclude == nil {
		o.Exclude = func(p string) bool { return strings.HasPrefix(p, "/in/") }
	}
	if o.MetaSizeThreshold == 0 {
		o.MetaSizeThreshold = 512
	}
	return o
}

// fileSummary is the per-file digest the classifier works from.
type fileSummary struct {
	path       string
	tMin, tMax uint64
	accessors  map[int32]bool // writers if the file has writes, else readers
	hasWrites  bool
	layout     Layout
}

// groupSummaries is the family-grouping tail of ClassifyHighLevelParallelCtx:
// sums must be in fas (path-sorted) order.
func groupSummaries(sums []*fileSummary, worldSize int) []HighLevelPattern {
	families := make(map[string][]*fileSummary)
	for _, s := range sums {
		families[familyKey(s.path)] = append(families[familyKey(s.path)], s)
	}
	keys := make([]string, 0, len(families))
	for k := range families {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var out []HighLevelPattern
	seen := make(map[string]bool)
	for _, k := range keys {
		// A family may hold a time-series of I/O phases (a checkpoint
		// series, repeated multi-file dumps); each concurrent cluster is
		// one phase and classifies independently.
		for _, cluster := range clusterByTime(families[k]) {
			p := classifyFamily(cluster, worldSize)
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

// clusterByTime partitions a family into groups of files whose access
// episodes overlap in time.
func clusterByTime(fam []*fileSummary) [][]*fileSummary {
	sorted := append([]*fileSummary(nil), fam...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].tMin < sorted[j].tMin })
	var out [][]*fileSummary
	var cur []*fileSummary
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

func summarize(fa *FileAccesses, metaThreshold int64) *fileSummary {
	s := &fileSummary{path: fa.Path, accessors: make(map[int32]bool)}
	for i := range fa.Intervals {
		iv := &fa.Intervals[i]
		if iv.Write {
			s.hasWrites = true
		}
	}
	byRank := make(map[int32][]*Interval)
	allAccessors := make(map[int32]bool)
	for i := range fa.Intervals {
		iv := &fa.Intervals[i]
		if s.hasWrites && !iv.Write {
			continue // writers define the pattern of written files
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
	// X counts the processes moving data, not the ones touching library
	// metadata (the paper's "small amount of extra metadata" tolerance:
	// FLASH-fbs is M-1 through its six aggregators even though ~30 ranks
	// write HDF5 metadata). Files with only sub-threshold accesses keep
	// their full accessor set.
	if len(s.accessors) == 0 {
		s.accessors = allAccessors
	}
	s.layout = LayoutConsecutive
	for _, seq := range byRank {
		sortByTime(seq)
		if l := layoutOf(seq); l > s.layout {
			s.layout = l
		}
	}
	return s
}

// layoutOf classifies one process's (size-filtered) access sequence in one
// file. A library call ("phase") issuing two or more non-adjacent blocks
// marks the block-cyclic file domains of collective buffering — the paper's
// "strided cyclic".
func layoutOf(seq []*Interval) Layout {
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
			// Does the phase's block set have gaps?
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

// familyKey groups related files: files in a subdirectory belong together
// (ADIOS .bp bundles), otherwise files sharing a digit-stripped name
// template (checkpoint series, file-per-process sets).
func familyKey(p string) string {
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

func classifyFamily(fam []*fileSummary, world int) HighLevelPattern {
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
		// File-per-process (or per-aggregator) family.
		y = scaleOf(len(fam), world)
	case len(fam) == 1:
		y = One
	case concurrent(fam):
		y = scaleOf(len(fam), world)
	default:
		// Sequential series (one file at a time): repeated X-1 phases.
		y = One
	}
	return HighLevelPattern{X: x, Y: y, Layout: layout, Files: files}
}

func scaleOf(n, world int) Scale {
	switch {
	case n <= 1:
		return One
	case n >= world:
		return N
	default:
		return M
	}
}

// concurrent reports whether any two files of the family were accessed in
// overlapping time windows.
func concurrent(fam []*fileSummary) bool {
	type ep struct{ lo, hi uint64 }
	eps := make([]ep, len(fam))
	for i, s := range fam {
		eps[i] = ep{s.tMin, s.tMax}
	}
	sort.Slice(eps, func(a, b int) bool { return eps[a].lo < eps[b].lo })
	for i := 1; i < len(eps); i++ {
		if eps[i].lo < eps[i-1].hi {
			return true
		}
	}
	return false
}
