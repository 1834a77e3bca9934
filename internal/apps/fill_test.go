package apps

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/payload"
)

// serialFill is the payload generator stepped once per byte from
// fillSeed: the definition every fill reference must reproduce.
func serialFill(tag string, rank, step int, n int64) []byte {
	h := fillSeed(tag, rank, step)
	b := make([]byte, n)
	for i := range b {
		h = h*6364136223846793005 + 1442695040888963407
		b[i] = byte(h >> 56)
	}
	return b
}

func TestFillMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	tags := []string{"", "lmp", "flash:dens", "enzo:grid", "input:/in/deck"}
	sizes := []int64{2 << 10, 64 << 10}
	for n := int64(0); n <= 257; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		tag := tags[rng.Intn(len(tags))]
		rank, step := rng.Intn(4096), rng.Intn(1<<20)
		want := serialFill(tag, rank, step, n)
		p := fill(tag, rank, step, n)
		if !bytes.Equal(p.Materialize(), want) || !p.Equal(payload.Bytes(want)) {
			t.Fatalf("fill(%q, %d, %d, %d) differs from the serial generator", tag, rank, step, n)
		}
	}
}
