package mpiio

import (
	"bytes"
	"testing"

	"repro/internal/harness"
	"repro/internal/payload"
)

// TestCollectiveFillMatchesBytes runs one collective write twice, once with
// each rank's fill reference and once with the same bytes as a Bytes
// payload, and requires identical file contents. The layouts make the
// aggregators take every path of writeDomain on a reference: pieces a
// domain boundary cuts at a nonzero offset, runs split into CB-buffer
// chunks, block-cyclic domains, and runs that merge adjacent (LAMMPS-like)
// and overlapping pieces into one buffer.
func TestCollectiveFillMatchesBytes(t *testing.T) {
	for _, c := range []struct {
		name        string
		opts        Options
		stride, len int64 // rank r writes [r*stride, r*stride+len)
	}{
		{"contiguous-cut", Options{CBNodes: 3}, 100, 100},
		{"cb-chunks", Options{CBNodes: 3, CBBufferSize: 64}, 100, 100},
		{"cyclic", Options{CyclicDomains: true, CBBufferSize: 48}, 100, 100},
		{"overlapping", Options{CBNodes: 3}, 60, 100},
	} {
		t.Run(c.name, func(t *testing.T) {
			dump := func(asBytes bool) []byte {
				res := run(t, 8, 2, func(ctx *harness.Ctx) error {
					f, err := Open(ctx.MPI, ctx.OS, ctx.Tracer, "/fill", ModeCreate|ModeWronly, c.opts)
					if err != nil {
						return err
					}
					data := payload.Fill(uint64(ctx.Rank)*0x9e3779b97f4a7c15, c.len)
					if asBytes {
						data = payload.Bytes(data.Materialize())
					}
					if err := f.WriteAtAll(int64(ctx.Rank)*c.stride, data); err != nil {
						return err
					}
					return f.Close()
				})
				return res.FS.ContentDump()["/fill"]
			}
			want, got := dump(true), dump(false)
			if len(want) != int(7*c.stride+c.len) {
				t.Fatalf("file holds %d bytes, want %d", len(want), 7*c.stride+c.len)
			}
			if !bytes.Equal(got, want) {
				i := 0
				for i < len(got) && i < len(want) && got[i] == want[i] {
					i++
				}
				t.Fatalf("fill-reference write differs from its bytes at offset %d (len %d vs %d)", i, len(got), len(want))
			}
		})
	}
}
