package payload

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// The oracles: the generator stepped once per byte, the full-buffer
// lane-parallel fill that wrote every payload before fills became
// references, and the k-step jump loop that preceded jump by squaring.

func serialFill(h uint64, n int64) []byte {
	b := make([]byte, n)
	for i := range b {
		h = h*mul + add
		b[i] = byte(h >> 56)
	}
	return b
}

func fullFill(h uint64, n int64) []byte {
	b := make([]byte, n)
	var l [8]uint64
	for j := range l {
		h = h*mul + add
		l[j] = h
	}
	m, a := loopJump(8)
	l0, l1, l2, l3, l4, l5, l6, l7 := l[0], l[1], l[2], l[3], l[4], l[5], l[6], l[7]
	i := 0
	for ; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], l0>>56|l1>>56<<8|l2>>56<<16|l3>>56<<24|
			l4>>56<<32|l5>>56<<40|l6>>56<<48|l7>>56<<56)
		l0, l1, l2, l3 = l0*m+a, l1*m+a, l2*m+a, l3*m+a
		l4, l5, l6, l7 = l4*m+a, l5*m+a, l6*m+a, l7*m+a
	}
	l = [8]uint64{l0, l1, l2, l3, l4, l5, l6, l7}
	for j := 0; i < len(b); i, j = i+1, j+1 {
		b[i] = byte(l[j] >> 56)
	}
	return b
}

func loopJump(k int) (m, a uint64) {
	m = 1
	for i := 0; i < k; i++ {
		m, a = m*mul, a*mul+add
	}
	return m, a
}

// unaligned picks an offset in [0, n] that is not a multiple of 8 when
// one exists.
func unaligned(rng *rand.Rand, n int64) int64 {
	if n == 0 {
		return 0
	}
	lo := rng.Int63n(n + 1)
	if lo%8 == 0 && lo > 0 {
		lo--
	}
	return lo
}

func TestFillSliceMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for n := int64(0); n <= 4100; n++ {
		seed := rng.Uint64()
		full := fullFill(seed, n)
		if n <= 300 && !bytes.Equal(full, serialFill(seed, n)) {
			t.Fatalf("n=%d: full-buffer oracle differs from the serial generator", n)
		}
		p := Fill(seed, n)
		lo := unaligned(rng, n)
		hi := lo + unaligned(rng, n-lo)
		want := full[lo:hi]
		s := p.Slice(lo, hi)
		if s.Len() != hi-lo {
			t.Fatalf("n=%d [%d,%d): Len %d", n, lo, hi, s.Len())
		}
		got := make([]byte, hi-lo+3)
		if c := s.CopyTo(got); c != len(want) || !bytes.Equal(got[:c], want) {
			t.Fatalf("n=%d [%d,%d): CopyTo differs from fill[lo:hi]", n, lo, hi)
		}
		if short := make([]byte, len(want)/2); s.CopyTo(short) != len(short) || !bytes.Equal(short, want[:len(short)]) {
			t.Fatalf("n=%d [%d,%d): CopyTo into a short buffer differs", n, lo, hi)
		}
		if !bytes.Equal(s.Materialize(), want) {
			t.Fatalf("n=%d [%d,%d): Materialize differs from fill[lo:hi]", n, lo, hi)
		}
		if !s.Equal(Bytes(want)) || !Bytes(want).Equal(s) {
			t.Fatalf("n=%d [%d,%d): Equal rejects fill[lo:hi]", n, lo, hi)
		}
		// A slice of a slice is the slice of the whole.
		if m := (hi - lo) / 2; !s.Slice(m, hi-lo).Equal(Bytes(full[lo+m : hi])) {
			t.Fatalf("n=%d [%d,%d): nested Slice differs", n, lo, hi)
		}
		if b := Bytes(full).Slice(lo, hi); !b.Equal(Bytes(want)) || !bytes.Equal(b.Materialize(), want) {
			t.Fatalf("n=%d [%d,%d): Bytes payload Slice differs", n, lo, hi)
		}
	}
}

func TestJumpMatchesLoop(t *testing.T) {
	const kMax = 1_000_000
	m, a := uint64(1), uint64(0)
	for k := 0; k <= kMax; k++ {
		if jm, ja := jump(uint64(k)); jm != m || ja != a {
			t.Fatalf("jump(%d) = (%#x, %#x), loop gives (%#x, %#x)", k, jm, ja, m, a)
		}
		m, a = m*mul, a*mul+add
	}
	if lm, la := loopJump(8); lm != mul8 || la != add8 {
		t.Fatal("mul8/add8 differ from the 8-step loop")
	}
}

func TestEqualRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int64{1, 7, 8, 9, chunkLen - 1, chunkLen, chunkLen + 1, 4099} {
		seed := rng.Uint64()
		p := Fill(seed, n)
		b := fullFill(seed, n)
		for _, i := range []int64{0, n / 2, n - 1} {
			flipped := append([]byte(nil), b...)
			flipped[i] ^= 0x40
			if p.Equal(Bytes(flipped)) || Bytes(b).Equal(Bytes(flipped)) || Bytes(flipped).Equal(p) {
				t.Errorf("n=%d: Equal accepts a buffer with byte %d flipped", n, i)
			}
		}
		if p.Equal(Bytes(b[:n-1])) || Bytes(b).Equal(Bytes(b[:n-1])) || p.Equal(p.Slice(0, n-1)) {
			t.Errorf("n=%d: Equal accepts a short buffer", n)
		}
		if p.Equal(Bytes(append(append([]byte(nil), b...), 0))) {
			t.Errorf("n=%d: Equal accepts a long buffer", n)
		}
	}
	b := []byte("abc")
	for _, e := range []P{{}, Bytes(nil), Bytes(b[3:]), Bytes(b).Slice(3, 3), Bytes(b[:0]), Fill(1, 0), Meta(1, 0, 4), Meta(1, 9, 4).Slice(9, 9)} {
		if e.Len() != 0 || !e.Equal(P{}) || !(P{}).Equal(e) || len(e.Materialize()) != 0 || e.CopyTo(b) != 0 {
			t.Errorf("empty payload %+v is not empty", e)
		}
	}
	if string(b) != "abc" {
		t.Error("an empty payload wrote bytes")
	}
}

// Equal between two references: the same state is the same bytes, and
// references whose states differ are compared by their bytes, whatever
// their kinds.
func TestEqualBetweenReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int64{1, 8, 9, 272, chunkLen + 5, 5000} {
		seed := rng.Uint64()
		p := Fill(seed, n)
		for _, lo := range []int64{0, 1, n / 3, n - 1} {
			m, a := jump(uint64(lo))
			if !p.Slice(lo, n).Equal(Fill(m*seed+a, n-lo)) {
				t.Errorf("n=%d lo=%d: a slice differs from the fill at its start state", n, lo)
			}
		}
		if p.Equal(Fill(seed+1, n)) || n > 1 && p.Slice(1, n).Equal(p.Slice(0, n-1)) {
			t.Errorf("n=%d: Equal accepts fills of other states", n)
		}
		if c := Bytes(p.Materialize()); !c.Equal(p) || !p.Equal(c) || !p.Clone().Equal(c) {
			t.Errorf("n=%d: a fill differs from its bytes", n)
		}
		if n > metaMax {
			continue
		}
		q := Meta(seed, n, 3)
		if c := Bytes(q.Materialize()); !c.Equal(q) || !q.Equal(c) || q.Equal(p) || p.Equal(q) || q.Equal(Meta(seed, n, 4)) {
			t.Errorf("n=%d: metadata Equal is wrong", n)
		}
	}
	// Masks of keys 1 and 257 agree in byte 0, so one-byte references of
	// epochs 0 and 256 have the same bytes but not the same packed length.
	if a, b := Meta(7, 1, 0), Meta(7, 1, 256); a.n == b.n || !a.Equal(b) || Meta(7, 2, 0).Equal(Meta(7, 2, 256)) {
		t.Error("metadata references of different states are not compared by bytes")
	}
}

// Clone copies a Bytes payload's buffer and keeps a reference as it is.
func TestCloneSharesNoBuffer(t *testing.T) {
	b := []byte("abcdef")
	c := Bytes(b).Slice(1, 4).Clone()
	b[2] = 'X'
	if got := string(c.Materialize()); got != "bcd" {
		t.Errorf("clone of a Bytes payload reads %q after its source changed, want %q", got, "bcd")
	}
	if f := Fill(3, 9).Slice(2, 7); f.Clone() != f {
		t.Error("clone of a fill reference is not the reference")
	}
}

var fillSink int

func BenchmarkGenerate(b *testing.B) {
	for _, impl := range []struct {
		name string
		f    func(uint64, int64) []byte
	}{
		{"lanes", func(h uint64, n int64) []byte { return Fill(h, n).Materialize() }},
		{"serial", serialFill},
	} {
		b.Run(impl.name, func(b *testing.B) {
			b.SetBytes(2 << 10)
			for i := 0; i < b.N; i++ {
				fillSink += len(impl.f(uint64(i), 2<<10))
			}
		})
	}
}
