package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// BenchmarkIndexSort isolates the satellite swap this PR makes in the sweep
// hot loop: the reflect-based closure sort.Slice versus the typed
// slices.SortFunc over the same index permutation and comparator. Run with
// -benchmem; the closure variant allocates for the interface header and
// pays reflect-driven swaps, the typed variant does neither.
func BenchmarkIndexSort(b *testing.B) {
	mk := func(n int) []Interval {
		rng := rand.New(rand.NewSource(int64(n)))
		ivs := make([]Interval, n)
		for i := range ivs {
			ivs[i] = Interval{T: uint64(rng.Intn(n)), Os: int64(rng.Intn(n * 4))}
		}
		return ivs
	}
	for _, n := range []int{100, 1000, 10000} {
		ivs := mk(n)
		idx := make([]int32, n)
		reset := func() {
			for i := range idx {
				idx[i] = int32(i)
			}
		}
		b.Run(fmt.Sprintf("sortSlice-closure/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reset()
				sort.Slice(idx, func(a, c int) bool {
					ia, ic := &ivs[idx[a]], &ivs[idx[c]]
					if ia.Os != ic.Os {
						return ia.Os < ic.Os
					}
					if ia.T != ic.T {
						return ia.T < ic.T
					}
					return idx[a] < idx[c]
				})
			}
		})
		b.Run(fmt.Sprintf("slicesSortFunc-typed/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reset()
				slices.SortFunc(idx, func(a, c int32) int {
					ia, ic := &ivs[a], &ivs[c]
					switch {
					case ia.Os != ic.Os:
						if ia.Os < ic.Os {
							return -1
						}
						return 1
					case ia.T != ic.T:
						if ia.T < ic.T {
							return -1
						}
						return 1
					default:
						return int(a - c)
					}
				})
			}
		})
	}
}

// BenchmarkOverlapDetection measures Algorithm 1's sweep as the interval
// count grows (the paper notes the sweep is linear in practice) over mostly
// disjoint strided blocks with occasional overlaps.
func BenchmarkOverlapDetection(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		ivs := make([]Interval, n)
		for i := range ivs {
			base := int64(i) * 100
			if i%17 == 0 {
				base -= 50
			}
			ivs[i] = Interval{T: uint64(i), TEnd: uint64(i) + 1,
				Rank: int32(i % 64), Os: base, Oe: base + 100, Write: i%2 == 0}
		}
		b.Run(fmt.Sprintf("algorithm1/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sweepOverlaps(ivs, func(overlapPair) {})
			}
		})
	}
}
