package mpi

import (
	"bytes"
	"testing"

	"repro/internal/payload"
)

// TestCollectiveDepositReuse checks the collectives' buffer contract: a
// rank may overwrite its deposit buffer as soon as the call returns, and no
// other rank — however late it wakes from the round — sees the overwrite.
// Each rank reuses one buffer per collective across iterations and fills it
// with 0xff right after every call, then checks every slot it received.
// Allgather's header follows that contract; its payload does not: the
// collective keeps the payload value, so every rank receives the
// depositor's own buffer, and a rank hands it a fresh one each call.
func TestCollectiveDepositReuse(t *testing.T) {
	const n, iters = 8, 50
	pattern := func(src, dst, iter int) []byte {
		return []byte{byte(src), byte(dst), byte(iter), 0x5a}
	}
	runWorld(t, n, func(p *Proc) {
		me := p.Rank()
		buf := make([]byte, 4)
		parts := make([][]byte, n)
		for dst := range parts {
			parts[dst] = make([]byte, 4)
		}
		deposit := func(iter int) []byte {
			copy(buf, pattern(me, -1, iter))
			return buf
		}
		depositParts := func(iter int) [][]byte {
			for dst, pt := range parts {
				copy(pt, pattern(me, dst, iter))
			}
			return parts
		}
		clobber := func() {
			for i := range buf {
				buf[i] = 0xff
			}
			for _, pt := range parts {
				for i := range pt {
					pt[i] = 0xff
				}
			}
		}
		check := func(op string, iter, slot int, got, want []byte) {
			if !bytes.Equal(got, want) {
				t.Errorf("%s iter %d: rank %d sees slot %d = %v, want %v", op, iter, me, slot, got, want)
			}
		}
		for iter := 0; iter < iters; iter++ {
			root := iter % n

			mine := pattern(me, -2, iter)
			all, data := p.Allgather(deposit(iter), payload.Bytes(mine))
			clobber()
			for src, got := range all {
				check("Allgather", iter, src, got, pattern(src, -1, iter))
				check("Allgather payload", iter, src, data[src].Materialize(), pattern(src, -2, iter))
			}
			if got := data[me].Materialize(); &got[0] != &mine[0] {
				t.Errorf("Allgather iter %d: rank %d's payload was copied, want its own buffer", iter, me)
			}

			gathered := p.Gather(root, deposit(iter))
			clobber()
			for src, got := range gathered {
				check("Gather", iter, src, got, pattern(src, -1, iter))
			}

			var bc []byte
			if me == root {
				bc = deposit(iter)
			}
			got := p.Bcast(root, bc)
			clobber()
			check("Bcast", iter, root, got, pattern(root, -1, iter))

			var sc [][]byte
			if me == root {
				sc = depositParts(iter)
			}
			got = p.Scatter(root, sc)
			clobber()
			check("Scatter", iter, root, got, pattern(root, me, iter))

			recv := p.Alltoall(depositParts(iter))
			clobber()
			for src, got := range recv {
				check("Alltoall", iter, src, got, pattern(src, me, iter))
			}
		}
	})
}
