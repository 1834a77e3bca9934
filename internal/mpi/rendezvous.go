package mpi

import (
	"sync"

	"repro/internal/payload"
)

// rendezvous implements the collective meeting point. SPMD programs call
// collectives in the same order on every rank, so a single rendezvous per
// communicator suffices. Every byte deposit is copied on arrival and a
// payload deposit is a value the collective owns, so a round is immutable
// once released: a fast rank may reuse its byte buffers and begin the next
// round while slow ranks still read the previous one, and all ranks read the
// released round's slices without copying them.
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
	slots    [][]byte    // per-rank copied bytes (bcast/gather, allgather headers)
	data     []payload.P // per-rank payload values (allgather), kept, not copied
	vals     []int64     // per-rank reduce operands; a departed rank's stays 0
	op       Op
	result   int64      // vals reduced with op, once, at release
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
		rv.cur = &round{seq: rv.seq}
		rv.seq++
	}
	return rv.cur
}

// releaseLocked completes the round once every non-departed rank arrived.
// A reduce round is reduced here, once for all its ranks.
func (rv *rendezvous) releaseLocked(r *round) {
	if !r.done && r.arrived >= rv.n-rv.departed {
		if r.vals != nil {
			r.result = r.vals[0]
			for _, v := range r.vals[1:] {
				r.result = r.op.apply(r.result, v)
			}
		}
		r.done = true
		rv.cond.Broadcast()
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

// arrive runs deposit on the current round under the lock and blocks until
// every non-departed rank arrived. deposit stores only what the round owns:
// copies of byte buffers, or values.
func (rv *rendezvous) arrive(clock uint64, deposit func(r *round)) *round {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	r := rv.beginLocked()
	if deposit != nil {
		deposit(r)
	}
	if clock > r.maxClock {
		r.maxClock = clock
	}
	r.arrived++
	rv.releaseLocked(r)
	for !r.done {
		rv.cond.Wait()
	}
	return r
}

// put stores rank's copied bytes b in the round's slots.
func (r *round) put(n, rank int, b []byte) {
	if r.slots == nil {
		r.slots = make([][]byte, n)
	}
	r.slots[rank] = b
}

// clone copies b as a deposit, nil when empty. The copy's capacity is its
// length, so an append to a shared result reallocates instead of writing
// into memory another rank can see.
func clone(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
