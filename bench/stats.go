package main

import "sort"

// sortedCopy returns xs sorted ascending without touching the caller's slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// cut returns the i-th of the parts-1 cut points that split sorted data into
// parts equal groups, with the same "exclusive" interpolation as Python's
// statistics.quantiles, so quartiles read here match the ones computed from
// the printed values. len(d) must be at least 2.
func cut(d []float64, i, parts int) float64 {
	n := len(d)
	m := n + 1
	j := i * m / parts
	if j < 1 {
		j = 1
	} else if j > n-1 {
		j = n - 1
	}
	delta := i*m - j*parts
	return (d[j-1]*float64(parts-delta) + d[j]*float64(delta)) / float64(parts)
}

// median of xs; 0 for no samples.
func median(xs []float64) float64 {
	switch len(xs) {
	case 0:
		return 0
	case 1:
		return xs[0]
	}
	return cut(sortedCopy(xs), 1, 2)
}

// quartiles returns the first quartile, the median and the third quartile.
// With fewer than two samples every quartile is the single sample (or 0).
func quartiles(xs []float64) [3]float64 {
	if len(xs) < 2 {
		m := median(xs)
		return [3]float64{m, m, m}
	}
	d := sortedCopy(xs)
	return [3]float64{cut(d, 1, 4), cut(d, 2, 4), cut(d, 3, 4)}
}

// tail is the highest percentile of a sample set that still has at least
// tailMinBeyond samples above it.
type tail struct {
	Percentile float64 `json:"percentile"`
	Value      float64 `json:"value"`
	Beyond     int     `json:"beyond"`
	Samples    int     `json:"samples"`
}

const tailMinBeyond = 10

// tailPercentile walks a fixed ladder of percentiles from the top down and
// returns the first one with at least tailMinBeyond samples beyond it; ok is
// false when even the median has fewer (under 2*tailMinBeyond samples).
func tailPercentile(xs []float64) (t tail, ok bool) {
	if len(xs) < 2 {
		return tail{}, false
	}
	d := sortedCopy(xs)
	for _, perMille := range []int{999, 990, 950, 900, 750, 500} {
		v := cut(d, perMille, 1000)
		beyond := len(d) - sort.Search(len(d), func(k int) bool { return d[k] > v })
		if beyond >= tailMinBeyond {
			return tail{Percentile: float64(perMille) / 10, Value: v, Beyond: beyond, Samples: len(d)}, true
		}
	}
	return tail{}, false
}

// failRatio is failed over attempted iterations; 1 when nothing was
// attempted, so an empty run never reads as clean.
func failRatio(failed, attempted int) float64 {
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}
