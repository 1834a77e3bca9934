package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/recorder"
)

// checkOriginStack feeds a rank stream through originStack and compares
// every record's origin and phase with the brute-force attribution. It
// returns the most frames the stack held live at once.
func checkOriginStack(t *testing.T, label string, rs []recorder.Record) int {
	t.Helper()
	wantOrigins, wantPhases := attributeOrigins(rs)
	var stack originStack
	most := 0
	for i := range rs {
		origin, phase := stack.step(i, &rs[i])
		if origin != wantOrigins[i] || phase != wantPhases[i] {
			t.Fatalf("%s: record %d %+v: origin %v phase %d, brute force %v phase %d",
				label, i, rs[i], origin, phase, wantOrigins[i], wantPhases[i])
		}
		most = max(most, len(stack.frames))
	}
	return most
}

// randomLibraryStream makes one TStart-ordered rank stream of library,
// POSIX and MPI records. Library calls nest inside the open ones or
// outlive them by a random amount, and starts and ends often tie, so
// frames are nested, partly overlapping and adjacent in random mixes.
func randomLibraryStream(rng *rand.Rand, n int) []recorder.Record {
	layers := []recorder.Layer{recorder.LayerHDF5, recorder.LayerMPIIO, recorder.LayerNetCDF,
		recorder.LayerPOSIX, recorder.LayerPOSIX, recorder.LayerMPI}
	rs := make([]recorder.Record, n)
	var t uint64
	for i := range rs {
		t += uint64(rng.Intn(3))
		d := uint64(rng.Intn(4))
		if rng.Intn(4) == 0 {
			d += uint64(rng.Intn(40))
		}
		rs[i] = recorder.Record{Layer: layers[rng.Intn(len(layers))], TStart: t, TEnd: t + d}
	}
	return rs
}

// flashShapeStream repeats FLASH's checkpoint shape: an HDF5 write whose
// MPI-IO call outlives it, POSIX writes under both, and the next HDF5
// call starting while that MPI-IO call is still open. Popping frames only
// from the top of the stack leaves every ended HDF5 frame buried under an
// open MPI-IO one.
func flashShapeStream(steps int) []recorder.Record {
	var rs []recorder.Record
	add := func(l recorder.Layer, s, e uint64) {
		rs = append(rs, recorder.Record{Layer: l, TStart: s, TEnd: e})
	}
	for k := range uint64(steps) {
		t := 10 * k
		add(recorder.LayerHDF5, t, t+4)
		add(recorder.LayerMPIIO, t+1, t+12)
		add(recorder.LayerPOSIX, t+2, t+3)
		add(recorder.LayerPOSIX, t+5, t+6)
		add(recorder.LayerMPI, t+7, t+7)
	}
	return rs
}

// TestOriginStackMatchesBruteForce: the streaming origin attribution
// equals the O(n²) one on random streams, on FLASH's shape, and on every
// registry trace.
func TestOriginStackMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 300; trial++ {
		checkOriginStack(t, fmt.Sprintf("trial %d", trial), randomLibraryStream(rng, 1+rng.Intn(120)))
	}
	if most := checkOriginStack(t, "FLASH shape", flashShapeStream(50)); most > 3 {
		t.Fatalf("FLASH shape: %d live frames, want at most 3", most)
	}
	for _, name := range apps.Names() {
		cfg, _ := apps.Lookup(name)
		res, err := apps.Execute(cfg, apps.Options{Ranks: 8, PPN: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for rank := range res.Trace.PerRank {
			checkOriginStack(t, fmt.Sprintf("%s rank %d", name, rank), res.Trace.Records(rank))
		}
	}
}

// TestOriginStackLiveFramesFLASH: on FLASH-fbs at 64 ranks no more than
// five frames are still open at any record's start, so a stack that drops
// every ended frame stays within 8 live frames. One that pops ended frames
// only from its top held 75.
func TestOriginStackLiveFramesFLASH(t *testing.T) {
	cfg, _ := apps.Lookup("FLASH-fbs")
	res, err := apps.Execute(cfg, apps.Options{Ranks: 64, PPN: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	most := 0
	for rank := range res.Trace.PerRank {
		rs := res.Trace.Records(rank)
		var stack originStack
		for i := range rs {
			stack.step(i, &rs[i])
			most = max(most, len(stack.frames))
		}
	}
	if most > 8 {
		t.Fatalf("%d live origin frames, want at most 8", most)
	}
}
