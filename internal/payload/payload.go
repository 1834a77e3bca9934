// Package payload is the value a write carries and a read returns: plain
// bytes, or a reference that names a run of one of two deterministic generators and
// produces its bytes only where they are used.
//
// A fill reference names a run of the payload generator, the 64-bit LCG
// h' = mul*h + add with one output byte (the top byte of the new state) per
// step. Its state after k steps is an affine map of the start state, so a
// fill reference is just a start state and a length: any sub-range is
// another reference, found in O(log offset) by squaring the map.
//
// A metadata reference names a run of the metadata generator, which makes
// the content of an emulated HDF5 metadata block: h' = h*metaMul + i for
// the block's byte index i, output byte h'>>32, optionally XORed with an
// epoch's period-8 mask. A block is short, so a sub-range re-runs at most
// the block's length in steps.
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

// P is a write's or a read's payload. The zero value is empty. A P is a small value:
// copying it never copies the bytes it stands for. It is as large as the
// slice header it replaced (24 bytes): the PFS walks arrays of extents
// that hold one, and a 40-byte P (slice plus state) made VASP's reads at
// 512 ranks 1.8x slower.
//
// The kind is in p and the sign of n: a Bytes payload has p set, a fill
// reference has neither, and a metadata reference has n negative, with its
// length, start index and epoch key packed into n's other bits (metaBit,
// metaLenBits).
type P struct {
	p unsafe.Pointer // first byte of a Bytes payload (kept alive by this pointer); nil for a reference
	n int64          // length; packed fields for a metadata reference
	h uint64         // reference: generator state before its first byte
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

// The metadata reference's packed n: the kind bit, then the epoch key
// (epoch+1, so 0 is no mask) above the start index above the length.
const (
	metaBit     = -1 << 63
	metaLenBits = 16
	metaMax     = 1<<metaLenBits - 1 // longest metadata reference, bytes
	metaKeyMax  = 1<<(63-2*metaLenBits) - 1
	metaMul     = 0x100000001b3
	metaMaskMul = 0x9e3779b9
)

// Meta is the reference to the n metadata-generator bytes of a block whose
// state before byte 0 is seed: byte i is the top half's low byte of
// h = h*0x100000001b3 + i, XORed with byte i%8 (little-endian) of
// (epoch+1)*0x9e3779b9. Epoch -1 has the zero mask, so it is the plain
// stream. n is at most 65535 bytes and epoch at most 2^31 - 2; making the
// reference allocates nothing.
func Meta(seed uint64, n, epoch int64) P {
	if n < 0 || n > metaMax || epoch < -1 || epoch+1 > metaKeyMax {
		panic("payload: metadata reference out of range")
	}
	return P{h: seed, n: metaBit | (epoch+1)<<(2*metaLenBits) | n}
}

// meta unpacks a metadata reference's block index of its first byte and
// its epoch key.
func (p P) meta() (start, key int64) {
	return p.n >> metaLenBits & metaMax, p.n >> (2 * metaLenBits) & metaKeyMax
}

// Len returns the payload's length in bytes.
func (p P) Len() int64 {
	if p.n < 0 {
		return p.n & metaMax
	}
	return p.n
}

// Slice returns bytes [lo, hi) of p with slice-expression bounds rules. A
// reference stays a reference: a fill reference finds its new start state
// in O(log lo), a metadata reference by re-running lo steps.
func (p P) Slice(lo, hi int64) P {
	if p.p != nil {
		return Bytes(p.bytes()[lo:hi])
	}
	if lo < 0 || hi < lo || hi > p.Len() {
		panic("payload: slice bounds out of range")
	}
	if p.n < 0 {
		start, key := p.meta()
		h := p.h
		for i := start; i < start+lo; i++ {
			h = h*metaMul + uint64(i)
		}
		return P{h: h, n: metaBit | key<<(2*metaLenBits) | (start+lo)<<metaLenBits | (hi - lo)}
	}
	m, a := jump(uint64(lo))
	return P{h: m*p.h + a, n: hi - lo}
}

// CopyTo writes the payload's first min(len(dst), Len()) bytes to dst and
// returns their count, like the copy built-in. A reference generates only
// those bytes.
func (p P) CopyTo(dst []byte) int {
	if p.p != nil {
		return copy(dst, p.bytes())
	}
	dst = dst[:min(int64(len(dst)), p.Len())]
	if p.n < 0 {
		start, key := p.meta()
		generateMeta(p.h, start, key, dst)
	} else {
		generate(p.h, dst)
	}
	return len(dst)
}

// Materialize returns the payload's bytes. For a Bytes payload that is the
// wrapped slice itself; a reference generates a fresh buffer, and an empty
// one (the zero P among them) returns nil.
func (p P) Materialize() []byte {
	if p.p != nil {
		return p.bytes()
	}
	if p.Len() == 0 {
		return nil
	}
	b := make([]byte, p.Len())
	p.CopyTo(b)
	return b
}

// Clone returns a payload with p's bytes that shares no buffer with it: a
// Bytes payload's bytes are copied, and a reference, which holds no
// buffer, is returned as it is.
func (p P) Clone() P {
	if p.p != nil {
		return Bytes(append([]byte(nil), p.bytes()...))
	}
	return p
}

// Equal reports whether p and q hold the same bytes. Two references of
// one kind with the same state and packed length are equal without a
// byte made; any other pair is compared a window at a time, so a
// reference's bytes are never built whole.
func (p P) Equal(q P) bool {
	if p.Len() != q.Len() {
		return false
	}
	if p.p == nil && q.p == nil && p.n == q.n && p.h == q.h {
		return true
	}
	if p.p != nil && q.p != nil {
		return bytes.Equal(p.bytes(), q.bytes())
	}
	if p.p != nil {
		p, q = q, p // p is a reference
	}
	var x, y [chunkLen]byte
	for p.Len() > 0 {
		c := p.CopyTo(x[:])
		want := y[:c]
		if q.p != nil {
			want = q.bytes()[:c]
		} else {
			q.CopyTo(want)
		}
		if !bytes.Equal(x[:c], want) {
			return false
		}
		p, q = p.Slice(int64(c), p.Len()), q.Slice(int64(c), q.Len())
	}
	return true
}

// generateMeta writes the metadata generator's bytes for block indexes
// start, start+1, ... into dst, from the state h before index start, with
// the mask of epoch key key.
func generateMeta(h uint64, start, key int64, dst []byte) {
	mask := uint64(key) * metaMaskMul
	for j := range dst {
		i := uint64(start) + uint64(j)
		h = h*metaMul + i
		dst[j] = byte(h>>32) ^ byte(mask>>(i%8*8))
	}
}

// chunkLen is Equal's comparison window.
const chunkLen = 1024

var mul8, add8 = jump(8)

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
