package colfmt

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// TestTakeVarintsMatchEncodingBinary: the inlined column readers decode,
// consume and reject exactly what binary.Uvarint and binary.Varint do —
// every length, the overflowing tenth byte, and short columns.
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
		wantU, n := binary.Uvarint(col)
		c := col
		if gotU, ok := takeUvarint(&c); ok != (n > 0) || (ok && (gotU != wantU || len(c) != len(col)-n)) || (!ok && len(c) != len(col)) {
			t.Fatalf("takeUvarint(% x) = %d, %v, rest %d; binary.Uvarint = %d, %d", col, gotU, ok, len(c), wantU, n)
		}
		wantV, n := binary.Varint(col)
		c = col
		if gotV, ok := takeVarint(&c); ok != (n > 0) || (ok && (gotV != wantV || len(c) != len(col)-n)) || (!ok && len(c) != len(col)) {
			t.Fatalf("takeVarint(% x) = %d, %v, rest %d; binary.Varint = %d, %d", col, gotV, ok, len(c), wantV, n)
		}
	}
}
