package core

import (
	"cmp"
	"path"
	"slices"
	"sort"
	"strings"
	"unicode/utf8"
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

// localPatternFile computes one file's local transition mix: each rank's
// successive accesses, which are adjacent within its rank run.
func localPatternFile(fa *FileAccesses) PatternMix {
	var mix PatternMix
	ivs := rankOrdered(fa.Intervals)
	for i := 1; i < len(ivs); i++ {
		if ivs[i].Rank == ivs[i-1].Rank {
			mix.add(classify(&ivs[i-1], &ivs[i]))
		}
	}
	return mix
}

// globalPatternFile computes one file's global transition mix. A file
// whose intervals are already in (time, rank) order, as every file one
// rank accesses is, is walked in place; sorting it would not move it.
func globalPatternFile(fa *FileAccesses) PatternMix {
	var mix PatternMix
	ivs := fa.Intervals
	if timeOrdered(ivs) {
		for i := 1; i < len(ivs); i++ {
			mix.add(classify(&ivs[i-1], &ivs[i]))
		}
		return mix
	}
	seq := make([]*Interval, 0, len(ivs))
	for i := range ivs {
		seq = append(seq, &ivs[i])
	}
	sortByTime(seq)
	for i := 1; i < len(seq); i++ {
		mix.add(classify(seq[i-1], seq[i]))
	}
	return mix
}

// timeOrdered reports whether ivs is non-decreasing in (time, rank), the
// order sortByTime establishes. sortByTime leaves such a slice as it is:
// pattern-defeating quicksort returns a presorted input untouched, ties
// included.
func timeOrdered(ivs []Interval) bool {
	for i := 1; i < len(ivs); i++ {
		a, b := &ivs[i-1], &ivs[i]
		if b.T < a.T || (b.T == a.T && b.Rank < a.Rank) {
			return false
		}
	}
	return true
}

// rankOrdered returns ivs if it is in extraction order — each rank's
// intervals contiguous, ranks ascending, each rank's intervals in time
// order (see FileAccesses.Intervals) — and otherwise a copy sorted stably
// into that order. The per-file passes walk its rank runs in place: a
// rank's run is the sequence the per-rank sort by time would produce
// (sortByTime leaves a run in time order as it is), so they need no
// per-rank grouping.
func rankOrdered(ivs []Interval) []Interval {
	for i := 1; i < len(ivs); i++ {
		if a, b := &ivs[i-1], &ivs[i]; b.Rank < a.Rank || (b.Rank == a.Rank && b.T < a.T) {
			out := slices.Clone(ivs)
			slices.SortStableFunc(out, func(a, b Interval) int {
				if c := cmp.Compare(a.Rank, b.Rank); c != 0 {
					return c
				}
				return cmp.Compare(a.T, b.T)
			})
			return out
		}
	}
	return ivs
}

// runEnd returns the end of the rank run of rank-ordered ivs that starts
// at lo.
func runEnd(ivs []Interval, lo int) int {
	hi := lo + 1
	for hi < len(ivs) && ivs[hi].Rank == ivs[lo].Rank {
		hi++
	}
	return hi
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
	// accessors counts the ranks behind the file's pattern (writers if the
	// file has writes, else readers; see summarize); 0 marks a file that
	// was not summarized. rank is the one accessor when there is one,
	// ranks lists them in ascending order when there are more.
	accessors int
	rank      int32
	ranks     []int32
	hasWrites bool
	layout    Layout
}

// appendAccessors appends the summary's accessor ranks to dst.
func (s *fileSummary) appendAccessors(dst []int32) []int32 {
	if s.accessors == 1 {
		return append(dst, s.rank)
	}
	return append(dst, s.ranks...)
}

// groupSummaries is the family-grouping tail of ClassifyHighLevelParallelCtx:
// sums must be in fas (path-sorted) order.
func groupSummaries(sums []fileSummary, worldSize int) []HighLevelPattern {
	// Family keys are built in one buffer and become a string once per
	// run of equal keys: a family's files mostly sit next to each other in
	// path order. The runs, sorted stably by key, give each family's files
	// in path order and the families in key order.
	type keyRun struct {
		key    string
		lo, hi int // sums[lo:hi]
	}
	var runs []keyRun
	var buf []byte
	for i := range sums {
		buf = appendFamilyKey(buf[:0], sums[i].path)
		if n := len(runs); n > 0 && string(buf) == runs[n-1].key {
			runs[n-1].hi = i + 1
			continue
		}
		runs = append(runs, keyRun{key: string(buf), lo: i, hi: i + 1})
	}
	slices.SortStableFunc(runs, func(a, b keyRun) int { return strings.Compare(a.key, b.key) })

	var out []HighLevelPattern
	seen := make(map[string]int) // pattern key -> index in out
	for lo := 0; lo < len(runs); {
		hi := lo + 1
		n := runs[lo].hi - runs[lo].lo
		for ; hi < len(runs) && runs[hi].key == runs[lo].key; hi++ {
			n += runs[hi].hi - runs[hi].lo
		}
		fam := make([]*fileSummary, 0, n)
		for _, r := range runs[lo:hi] {
			for i := r.lo; i < r.hi; i++ {
				fam = append(fam, &sums[i])
			}
		}
		lo = hi
		// A family may hold a time-series of I/O phases (a checkpoint
		// series, repeated multi-file dumps); each concurrent cluster is
		// one phase and classifies independently.
		for _, cluster := range clusterByTime(fam) {
			p := classifyFamily(cluster, worldSize)
			key := p.Key()
			if i, ok := seen[key]; ok {
				out[i].Files = append(out[i].Files, p.Files...)
				continue
			}
			seen[key] = len(out)
			out = append(out, p)
		}
	}
	return out
}

// clusterByTime partitions a family into groups of files whose access
// episodes overlap in time. The groups are consecutive, capacity-clipped
// ranges of one sorted copy of fam.
func clusterByTime(fam []*fileSummary) [][]*fileSummary {
	sorted := append([]*fileSummary(nil), fam...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].tMin < sorted[j].tMin })
	var out [][]*fileSummary
	lo := 0
	var curHi uint64
	for i, s := range sorted {
		if i > lo && s.tMin >= curHi {
			out = append(out, sorted[lo:i:i])
			lo = i
		}
		if s.tMax > curHi {
			curHi = s.tMax
		}
	}
	if lo < len(sorted) {
		out = append(out, sorted[lo:])
	}
	return out
}

// layoutFilter selects the intervals behind a file's pattern: its writes
// if it has any (writers define the pattern of written files), else its
// reads, and for the layout only those moving at least min bytes.
type layoutFilter struct {
	writesOnly bool
	min        int64
}

func (f layoutFilter) counts(iv *Interval) bool { return !f.writesOnly || iv.Write }

func (f layoutFilter) moves(iv *Interval) bool { return f.counts(iv) && iv.Oe-iv.Os >= f.min }

// touches reports whether f counts any interval of run, and whether any
// of them moves data.
func (f layoutFilter) touches(run []Interval) (counted, moved bool) {
	for i := range run {
		if iv := &run[i]; f.counts(iv) {
			if iv.Oe-iv.Os >= f.min {
				return true, true
			}
			counted = true
		}
	}
	return counted, false
}

// summarize digests one file. It walks the file's rank runs in place and
// allocates only for a file that several ranks move data in (its accessor
// list) or whose runs leave extraction order (see rankOrdered, layoutOf).
func summarize(fa *FileAccesses, metaThreshold int64) fileSummary {
	s := fileSummary{path: fa.Path, layout: LayoutConsecutive}
	for i := range fa.Intervals {
		if fa.Intervals[i].Write {
			s.hasWrites = true
			break
		}
	}
	f := layoutFilter{writesOnly: s.hasWrites, min: metaThreshold}
	for i := range fa.Intervals {
		iv := &fa.Intervals[i]
		if !f.counts(iv) {
			continue
		}
		if s.tMin == 0 && s.tMax == 0 {
			s.tMin, s.tMax = iv.T, iv.TEnd
		}
		if iv.T < s.tMin {
			s.tMin = iv.T
		}
		if iv.TEnd > s.tMax {
			s.tMax = iv.TEnd
		}
	}
	// X counts the processes moving data, not the ones touching library
	// metadata (the paper's "small amount of extra metadata" tolerance:
	// FLASH-fbs is M-1 through its six aggregators even though ~30 ranks
	// write HDF5 metadata). Files with only sub-threshold accesses keep
	// their full accessor set.
	ivs := rankOrdered(fa.Intervals)
	moving, counted := 0, 0
	var firstMoving, firstCounted int32
	for lo := 0; lo < len(ivs); {
		hi := runEnd(ivs, lo)
		run := ivs[lo:hi]
		lo = hi
		c, m := f.touches(run)
		if c {
			if counted++; counted == 1 {
				firstCounted = run[0].Rank
			}
		}
		if m {
			if moving++; moving == 1 {
				firstMoving = run[0].Rank
			}
			if l := layoutOf(run, f); l > s.layout {
				s.layout = l
			}
		}
	}
	s.accessors, s.rank = moving, firstMoving
	if moving == 0 {
		s.accessors, s.rank = counted, firstCounted
	}
	if s.accessors > 1 {
		s.ranks = make([]int32, 0, s.accessors)
		for lo := 0; lo < len(ivs); {
			hi := runEnd(ivs, lo)
			if c, m := f.touches(ivs[lo:hi]); m || (moving == 0 && c) {
				s.ranks = append(s.ranks, ivs[lo].Rank)
			}
			lo = hi
		}
	}
	return s
}

// layoutOf classifies one process's access sequence in one file: the
// intervals of its rank run that f says move data. A library call
// ("phase") issuing two or more non-adjacent blocks marks the block-cyclic
// file domains of collective buffering — the paper's "strided cyclic".
func layoutOf(run []Interval, f layoutFilter) Layout {
	var prev *Interval
	n := 0
	consecutive, monotonic := true, true
	lastPhase, ascending := -1, true
	for i := range run {
		iv := &run[i]
		if !f.moves(iv) {
			continue
		}
		n++
		if prev != nil {
			switch classify(prev, iv) {
			case Monotonic:
				consecutive = false
			case Random:
				consecutive = false
				monotonic = false
			}
		}
		prev = iv
		if iv.Phase >= 0 {
			if iv.Phase <= lastPhase {
				ascending = false
			}
			lastPhase = iv.Phase
		}
	}
	switch {
	case n < 2:
		return LayoutConsecutive
	case !ascending && cyclicPhases(run, f): // ascending phases are distinct
		return LayoutStridedCyclic
	case consecutive:
		return LayoutConsecutive
	case monotonic:
		return LayoutStrided
	default:
		return LayoutRandom
	}
}

// cyclicPhases reports whether, among the intervals of run that f says
// move data, some phase issues two or more blocks with a gap between
// them in offset order. It is layoutOf's path for a run whose phases do
// not ascend, and the one place the layout pass sorts.
func cyclicPhases(run []Interval, f layoutFilter) bool {
	var seq []*Interval
	for i := range run {
		if iv := &run[i]; f.moves(iv) && iv.Phase >= 0 {
			seq = append(seq, iv)
		}
	}
	slices.SortStableFunc(seq, func(a, b *Interval) int { return cmp.Compare(a.Phase, b.Phase) })
	for lo := 0; lo < len(seq); {
		hi := lo + 1
		for hi < len(seq) && seq[hi].Phase == seq[lo].Phase {
			hi++
		}
		blocks := seq[lo:hi]
		lo = hi
		sort.Slice(blocks, func(a, b int) bool { return blocks[a].Os < blocks[b].Os })
		for i := 1; i < len(blocks); i++ {
			if blocks[i].Os > blocks[i-1].Oe {
				return true
			}
		}
	}
	return false
}

// appendFamilyKey appends the key that groups related files to dst: files
// in a subdirectory belong together (ADIOS .bp bundles), otherwise files
// sharing a digit-stripped name template (checkpoint series,
// file-per-process sets). The name is walked rune by rune, so an invalid
// UTF-8 byte becomes U+FFFD in the key.
func appendFamilyKey(dst []byte, p string) []byte {
	dir := path.Dir(p)
	if dir != "/" && dir != "." {
		return append(dst, dir...)
	}
	dst = append(dst, "tpl:"...)
	for _, r := range path.Base(p) {
		if r >= '0' && r <= '9' {
			continue
		}
		dst = utf8.AppendRune(dst, r)
	}
	return dst
}

func classifyFamily(fam []*fileSummary, world int) HighLevelPattern {
	files := make([]string, 0, len(fam))
	ranks := make([]int32, 0, len(fam)) // at least one accessor per file
	layout := LayoutConsecutive
	allSingle := true
	for _, s := range fam {
		files = append(files, s.path)
		ranks = s.appendAccessors(ranks)
		if s.accessors > 1 {
			allSingle = false
		}
		if s.layout > layout {
			layout = s.layout
		}
	}
	sort.Strings(files)
	slices.Sort(ranks)
	union := len(slices.Compact(ranks))
	x := scaleOf(union, world)

	var y Scale
	switch {
	case allSingle && union > 1:
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
