package mpi

import (
	"repro/internal/recorder"
	"repro/internal/sim"
)

// Scatter distributes parts[i] from root to rank i. Non-root ranks pass nil
// parts. The result is read-only (no other rank receives it); root may
// reuse parts once Scatter returns.
func (p *Proc) Scatter(root int, parts [][]byte) []byte {
	var size int64
	if p.rank == root {
		if len(parts) != p.Size() {
			panic("mpi: Scatter needs one part per rank")
		}
		for _, pt := range parts {
			size += int64(len(pt))
		}
	}
	r := p.collectiveScatter(root, parts, size)
	return r.scatter[p.rank]
}

// Alltoall sends parts[i] to rank i and returns what each rank sent here.
// The returned parts are read-only (no other rank receives them); parts may
// be reused once Alltoall returns.
func (p *Proc) Alltoall(parts [][]byte) [][]byte {
	if len(parts) != p.Size() {
		panic("mpi: Alltoall needs one part per rank")
	}
	var bytes int64
	for _, pt := range parts {
		bytes += int64(len(pt))
	}
	ts := p.clock.Stamp()
	r := p.world.rv.arriveAlltoall(p.rank, p.clock.Now(), parts)
	cost := sim.BarrierCost + uint64(bytes)*sim.CollPerByte
	p.clock.MergeAtLeast(r.maxClock)
	p.clock.Advance(cost)
	p.emit(recorder.FuncMPIAlltoall, ts, -1, bytes, r.seq)
	out := make([][]byte, p.Size())
	for src := range out {
		out[src] = r.alltoall[src][p.rank]
	}
	return out
}

func (p *Proc) collectiveScatter(root int, parts [][]byte, bytes int64) *round {
	ts := p.clock.Stamp()
	if p.rank == root {
		parts = cloneParts(parts) // only root deposits its parts
	}
	r := p.world.rv.arrive(p.clock.Now(), func(r *round) {
		if p.rank == root {
			r.scatter = parts
		}
	})
	cost := sim.BarrierCost + uint64(bytes)*sim.CollPerByte
	p.clock.MergeAtLeast(r.maxClock)
	p.clock.Advance(cost)
	p.emit(recorder.FuncMPIScatter, ts, int64(root), bytes, r.seq)
	return r
}

// arriveAlltoall is arrive for alltoall: every rank deposits (copies of) a
// part vector.
func (rv *rendezvous) arriveAlltoall(rank int, clock uint64, parts [][]byte) *round {
	parts = cloneParts(parts)
	return rv.arrive(clock, func(r *round) {
		if r.alltoall == nil {
			r.alltoall = make([][][]byte, rv.n)
		}
		r.alltoall[rank] = parts
	})
}

func cloneParts(parts [][]byte) [][]byte {
	out := make([][]byte, len(parts))
	for i, pt := range parts {
		out[i] = clone(pt)
	}
	return out
}
