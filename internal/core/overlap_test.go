package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func iv(t uint64, rank int32, os, oe int64, write bool) Interval {
	return Interval{T: t, TEnd: t + 1, Rank: rank, Os: os, Oe: oe, Write: write}
}

func collectPairs(ivs []Interval, detect func([]Interval, func(OverlapPair))) []OverlapPair {
	var pairs []OverlapPair
	detect(ivs, func(p OverlapPair) { pairs = append(pairs, p) })
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	return pairs
}

func TestOverlapBasic(t *testing.T) {
	ivs := []Interval{
		iv(10, 0, 0, 100, true),   // 0
		iv(20, 1, 50, 150, false), // 1: overlaps 0
		iv(30, 2, 100, 200, true), // 2: touches 0 (no overlap), overlaps 1
		iv(40, 3, 500, 600, true), // 3: disjoint
	}
	pairs := collectPairs(ivs, sweepOverlaps)
	// Candidate pairs (earlier op is a write): (0,1) write-read, (1,2) has
	// earlier=1 which is a read → skipped, (0,2) only touch and 3 is
	// disjoint.
	want := []OverlapPair{{A: 0, B: 1}}
	if !reflect.DeepEqual(pairs, want) {
		t.Fatalf("pairs = %v, want %v", pairs, want)
	}
}

func TestOverlapContained(t *testing.T) {
	ivs := []Interval{
		iv(10, 0, 0, 1000, true),
		iv(20, 1, 400, 500, true), // fully inside
	}
	pairs := collectPairs(ivs, sweepOverlaps)
	if len(pairs) != 1 || pairs[0] != (OverlapPair{A: 0, B: 1}) {
		t.Fatalf("pairs = %v", pairs)
	}
}

func TestOverlapTimeOrdersPairs(t *testing.T) {
	// Later-by-offset but earlier-by-time: pair must be time-ordered.
	ivs := []Interval{
		iv(50, 0, 0, 100, false), // read at t=50
		iv(10, 1, 50, 60, true),  // write at t=10
	}
	pairs := collectPairs(ivs, sweepOverlaps)
	if len(pairs) != 1 {
		t.Fatalf("pairs = %v", pairs)
	}
	if pairs[0].A != 1 || pairs[0].B != 0 {
		t.Fatalf("pair not time-ordered: %v", pairs[0])
	}
}

func TestOverlapSkipsReadReadPairs(t *testing.T) {
	ivs := []Interval{
		iv(10, 0, 0, 100, false),
		iv(20, 1, 0, 100, false),
	}
	if pairs := collectPairs(ivs, sweepOverlaps); len(pairs) != 0 {
		t.Fatalf("read-read pair materialized: %v", pairs)
	}
}

func TestOverlapMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(60)
		ivs := make([]Interval, n)
		for i := range ivs {
			os := int64(rng.Intn(500))
			ivs[i] = iv(uint64(rng.Intn(1000)), int32(rng.Intn(4)), os, os+int64(rng.Intn(100)+1), rng.Intn(2) == 0)
		}
		gotPairs := collectPairs(ivs, sweepOverlaps)
		wantPairs := collectPairs(ivs, detectOverlapsBruteForce)
		if !reflect.DeepEqual(gotPairs, wantPairs) {
			t.Fatalf("trial %d: pair mismatch\n got %v\nwant %v\nivs=%v", trial, gotPairs, wantPairs, ivs)
		}
	}
}

func TestOverlapEmptyAndSingle(t *testing.T) {
	noPair := func(OverlapPair) { t.Fatal("pair from fewer than two intervals") }
	sweepOverlaps(nil, noPair)
	sweepOverlaps([]Interval{iv(1, 0, 0, 10, true)}, noPair)
}

func TestOverlapIdenticalOffsets(t *testing.T) {
	// Several writes to exactly the same range (the HDF5 metadata shape).
	ivs := []Interval{
		iv(10, 0, 96, 368, true),
		iv(20, 1, 96, 368, true),
		iv(30, 2, 96, 368, true),
	}
	pairs := collectPairs(ivs, sweepOverlaps)
	if len(pairs) != 3 { // (0,1), (0,2), (1,2)
		t.Fatalf("expected 3 pairs, got %v", pairs)
	}
}
