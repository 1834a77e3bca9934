package apps

import (
	"bytes"
	"math/rand"
	"testing"
)

// serialFill is the payload generator stepped once per byte: the
// definition the lane-parallel fill must reproduce exactly.
func serialFill(tag string, rank, step int, n int64) []byte {
	h := fillSeed(tag, rank, step)
	b := make([]byte, n)
	for i := range b {
		h = h*fillMul + fillAdd
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
		if got, want := fill(tag, rank, step, n), serialFill(tag, rank, step, n); !bytes.Equal(got, want) {
			t.Fatalf("fill(%q, %d, %d, %d) differs from the serial generator", tag, rank, step, n)
		}
	}
}

var fillSink int

func BenchmarkFill(b *testing.B) {
	for _, impl := range []struct {
		name string
		f    func(string, int, int, int64) []byte
	}{{"lanes", fill}, {"serial", serialFill}} {
		b.Run(impl.name, func(b *testing.B) {
			b.SetBytes(2 << 10)
			for i := 0; i < b.N; i++ {
				fillSink += len(impl.f("enzo:grid", 3, i, 2<<10))
			}
		})
	}
}
