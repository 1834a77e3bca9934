package colfmt

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// TestTakeVarintsMatchEncodingBinary: the inlined column readers decode,
// consume and reject exactly what binary.Uvarint and binary.Varint do —
// every length, the overflowing tenth byte, and short columns — from any
// position in a column, advancing the position by the bytes consumed and
// leaving it unchanged on failure.
func TestTakeVarintsMatchEncodingBinary(t *testing.T) {
	cols := [][]byte{
		nil, {}, {0}, {0x7f}, {0x80}, {0x80, 0x01}, {0xff, 0xff, 0x03},
		binary.AppendUvarint(nil, math.MaxUint64),
		binary.AppendVarint(nil, math.MinInt64),
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},       // max, 10 bytes
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},       // overflows
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, // 11 bytes
	}
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 2000; i++ {
		col := binary.AppendUvarint(nil, rng.Uint64()>>rng.Intn(64))
		col = binary.AppendVarint(col, rng.Int63()>>rng.Intn(63)*int64(1-2*rng.Intn(2)))
		cols = append(cols, col, col[:rng.Intn(len(col)+1)])
	}
	for _, col := range cols {
		for _, lead := range []int{0, 3} {
			buf := append(make([]byte, lead), col...) // col at position lead
			wantU, n := binary.Uvarint(col)
			pos := lead
			if gotU, ok := takeUvarint(buf, &pos); ok != (n > 0) || (ok && (gotU != wantU || pos != lead+n)) || (!ok && pos != lead) {
				t.Fatalf("takeUvarint(% x at %d) = %d, %v, pos %d; binary.Uvarint = %d, %d", col, lead, gotU, ok, pos, wantU, n)
			}
			wantV, n := binary.Varint(col)
			pos = lead
			if gotV, ok := takeVarint(buf, &pos); ok != (n > 0) || (ok && (gotV != wantV || pos != lead+n)) || (!ok && pos != lead) {
				t.Fatalf("takeVarint(% x at %d) = %d, %v, pos %d; binary.Varint = %d, %d", col, lead, gotV, ok, pos, wantV, n)
			}
		}
	}
}
