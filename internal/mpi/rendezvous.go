package mpi

import "sync"

// rendezvous implements the collective meeting point. SPMD programs call
// collectives in the same order on every rank, so a single rendezvous per
// communicator suffices. Every deposit is copied on arrival, so a round owns
// its payloads and is immutable once released: a fast rank may reuse its
// buffers and begin the next round while slow ranks still read the previous
// one, and all ranks read the released round's slices without copying them.
type rendezvous struct {
	mu       sync.Mutex
	cond     *sync.Cond
	n        int
	departed int // ranks that left the job (crash faults, failed bodies)
	cur      *round
	seq      int64
}

// round is one collective instance.
type round struct {
	seq      int64
	arrived  int
	maxClock uint64
	slots    [][]byte   // per-rank deposited payloads (gather/bcast/reduce)
	scatter  [][]byte   // root-deposited parts (scatter)
	alltoall [][][]byte // [src][dst] parts
	done     bool
}

func newRendezvous(n int) *rendezvous {
	rv := &rendezvous{n: n}
	rv.cond = sync.NewCond(&rv.mu)
	return rv
}

func (rv *rendezvous) beginLocked() *round {
	if rv.cur == nil || rv.cur.done {
		rv.cur = &round{
			seq:   rv.seq,
			slots: make([][]byte, rv.n),
		}
		rv.seq++
	}
	return rv.cur
}

// releaseLocked completes the round once every non-departed rank arrived.
func (rv *rendezvous) releaseLocked(r *round) {
	if !r.done && r.arrived >= rv.n-rv.departed {
		r.done = true
		rv.cond.Broadcast()
	}
}

func (rv *rendezvous) finishLocked(r *round) {
	r.arrived++
	rv.releaseLocked(r)
	for !r.done {
		rv.cond.Wait()
	}
}

// depart removes one rank from collective accounting: the in-progress round
// (if any) and every future round complete without it. Ranks only depart
// from outside a collective, so arrived never counts a departed rank.
func (rv *rendezvous) depart() {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	rv.departed++
	if rv.cur != nil {
		rv.releaseLocked(rv.cur)
	}
}

// arrive deposits the concatenation of parts for rank and blocks until all
// ranks arrive.
func (rv *rendezvous) arrive(rank int, clock uint64, parts [][]byte) *round {
	own := concat(parts) // the parts do not escape, so callers may pass stack buffers
	rv.mu.Lock()
	defer rv.mu.Unlock()
	r := rv.beginLocked()
	r.slots[rank] = own
	if clock > r.maxClock {
		r.maxClock = clock
	}
	rv.finishLocked(r)
	return r
}

// arriveScatter is arrive for scatter: only root deposits (copies of) the
// parts.
func (rv *rendezvous) arriveScatter(rank int, clock uint64, root int, parts [][]byte) *round {
	if rank == root {
		parts = cloneParts(parts)
	}
	rv.mu.Lock()
	defer rv.mu.Unlock()
	r := rv.beginLocked()
	if rank == root {
		r.scatter = parts
	}
	if clock > r.maxClock {
		r.maxClock = clock
	}
	rv.finishLocked(r)
	return r
}

// concat copies a deposit's parts into one slice, nil when empty. The
// copy's capacity is its length, so an append to a shared result
// reallocates instead of writing into memory another rank can see.
func concat(parts [][]byte) []byte {
	n := 0
	for _, pt := range parts {
		n += len(pt)
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, 0, n)
	for _, pt := range parts {
		out = append(out, pt...)
	}
	return out
}

// clone copies one part as a deposit (see concat).
func clone(b []byte) []byte { return concat([][]byte{b}) }

func cloneParts(parts [][]byte) [][]byte {
	out := make([][]byte, len(parts))
	for i, pt := range parts {
		out[i] = clone(pt)
	}
	return out
}
