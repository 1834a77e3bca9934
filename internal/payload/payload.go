// Package payload is the value a write carries: plain bytes, or a fill
// reference that names a run of the deterministic payload generator and
// produces its bytes only where they are used.
//
// The generator is the 64-bit LCG h' = mul*h + add, one output byte (the
// top byte of the new state) per step. Its state after k steps is an affine
// map of the start state, so a reference is just a start state and a
// length: any sub-range is another reference, found in O(log offset) by
// squaring the map.
package payload

import (
	"bytes"
	"encoding/binary"
	"unsafe"
)

const (
	mul = 6364136223846793005
	add = 1442695040888963407
)

// P is a write's payload. The zero value is empty. A P is a small value:
// copying it never copies the bytes it stands for. It is as large as the
// slice header it replaced (24 bytes): the PFS walks arrays of extents
// that hold one, and a 40-byte P (slice plus state) made VASP's reads at
// 512 ranks 1.8x slower.
type P struct {
	p unsafe.Pointer // first byte of a Bytes payload (kept alive by this pointer); nil for a fill reference
	n int64          // length
	h uint64         // fill reference: generator state before its first byte
}

// Bytes wraps b as a payload. The payload is b itself, not a copy.
func Bytes(b []byte) P { return P{p: unsafe.Pointer(unsafe.SliceData(b)), n: int64(len(b))} }

// bytes returns a Bytes payload's slice.
func (p P) bytes() []byte { return unsafe.Slice((*byte)(p.p), p.n) }

// Fill is the reference to n generator bytes starting from state seed:
// byte i is the top byte of the state after i+1 steps.
func Fill(seed uint64, n int64) P {
	if n < 0 {
		panic("payload: negative fill length")
	}
	return P{h: seed, n: n}
}

// Len returns the payload's length in bytes.
func (p P) Len() int64 { return p.n }

// Slice returns bytes [lo, hi) of p with slice-expression bounds rules. A
// fill reference stays a reference; finding its new start state costs
// O(log lo).
func (p P) Slice(lo, hi int64) P {
	if p.p != nil {
		return Bytes(p.bytes()[lo:hi])
	}
	if lo < 0 || hi < lo || hi > p.n {
		panic("payload: slice bounds out of range")
	}
	m, a := jump(uint64(lo))
	return P{h: m*p.h + a, n: hi - lo}
}

// CopyTo writes the payload's first min(len(dst), Len()) bytes to dst and
// returns their count, like the copy built-in. A fill reference generates
// only those bytes.
func (p P) CopyTo(dst []byte) int {
	if p.p != nil {
		return copy(dst, p.bytes())
	}
	n := min(int64(len(dst)), p.n)
	generate(p.h, dst[:n])
	return int(n)
}

// Materialize returns the payload's bytes. For a Bytes payload that is the
// wrapped slice itself; a fill reference generates a fresh buffer.
func (p P) Materialize() []byte {
	if p.p != nil {
		return p.bytes()
	}
	b := make([]byte, p.n)
	generate(p.h, b)
	return b
}

// Equal reports whether b holds exactly the payload's bytes. A fill
// reference is compared a chunk at a time, without building its bytes.
func (p P) Equal(b []byte) bool {
	if p.p != nil {
		return bytes.Equal(p.bytes(), b)
	}
	if int64(len(b)) != p.n {
		return false
	}
	var chunk [chunkLen]byte
	for h := p.h; len(b) > 0; h = h*chunkMul + chunkAdd {
		c := chunk[:min(len(b), chunkLen)]
		generate(h, c)
		if !bytes.Equal(c, b[:len(c)]) {
			return false
		}
		b = b[len(c):]
	}
	return true
}

// chunkLen is Equal's comparison window; chunkMul and chunkAdd advance the
// generator past one window.
const chunkLen = 1024

var (
	chunkMul, chunkAdd = jump(chunkLen)
	mul8, add8         = jump(8)
)

// jump returns the multiplier and increment that advance the generator by
// k steps at once (arithmetic mod 2^64), composing the maps for the set
// bits of k while squaring the one-step map.
func jump(k uint64) (m, a uint64) {
	m = 1
	bm, ba := uint64(mul), uint64(add) // the map for 2^i steps
	for ; k > 0; k >>= 1 {
		if k&1 != 0 {
			m, a = m*bm, a*bm+ba
		}
		bm, ba = bm*bm, ba*bm+ba
	}
	return m, a
}

// generate writes the generator's bytes from state h into dst. It runs the
// generator as eight interleaved lanes, each advanced eight steps at a time
// by the jump-ahead pair (mul8, add8), so the eight multiplies of one round
// are independent and the stream is the same byte for byte as stepping the
// generator once per byte.
func generate(h uint64, dst []byte) {
	// Lane j holds the state whose top byte is dst[i+j].
	var l [8]uint64
	for j := range l {
		h = h*mul + add
		l[j] = h
	}
	m, a := mul8, add8
	l0, l1, l2, l3, l4, l5, l6, l7 := l[0], l[1], l[2], l[3], l[4], l[5], l[6], l[7]
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], l0>>56|l1>>56<<8|l2>>56<<16|l3>>56<<24|
			l4>>56<<32|l5>>56<<40|l6>>56<<48|l7>>56<<56)
		l0, l1, l2, l3 = l0*m+a, l1*m+a, l2*m+a, l3*m+a
		l4, l5, l6, l7 = l4*m+a, l5*m+a, l6*m+a, l7*m+a
	}
	l = [8]uint64{l0, l1, l2, l3, l4, l5, l6, l7}
	for j := 0; i < len(dst); i, j = i+1, j+1 {
		dst[i] = byte(l[j] >> 56)
	}
}
