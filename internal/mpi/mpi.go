// Package mpi is a deterministic simulated MPI runtime. Each rank runs in
// its own goroutine; point-to-point messages and collectives move both data
// and *logical time*: a receiver's clock advances to at least the sender's
// clock plus the message cost, and a collective releases every participant
// at the same logical instant (the max of the arrival clocks plus the
// collective's cost). The resulting per-rank timestamp streams are
// consistent with the happens-before order of the program — the property
// the paper's conflict analysis depends on (Section 5.2).
//
// Every call emits an MPI-layer trace record carrying enough matching
// information (peer/tag/sequence numbers) for the analyzer to reconstruct
// the happens-before graph from the trace alone.
//
// A collective's byte deposits are copied once, when a rank deposits them,
// and the released round is shared: the byte slices Bcast, Gather and
// Allgather return are read-only and may be the same slices other ranks
// receive, while the caller may reuse its own deposit buffers as soon as
// the call returns. A collective therefore costs O(total payload), not
// O(ranks × total payload). Allgather also carries a payload.P per rank,
// which it keeps as a value instead of copying: a fill reference stays a
// reference, and a Bytes payload's buffer belongs to the collective once
// deposited. Its cost and record count the header and the payload alike
// (len(h) + data.Len() bytes). A reduction is computed once per round, when
// the rendezvous releases it, and every rank reads that result. Every
// caller in the module only reads its results: mpiio's two-phase
// WriteAtAll/WriteAll deposit a stack header and the caller's payload
// (whose buffer the file system would keep anyway), decode the gathered
// headers, and writeDomain writes a run of one piece as a Slice of its
// payload and merges the pieces of any other run into a fresh buffer;
// ReadAtAll gathers bare headers, then each aggregator's freshly read
// domain as a payload, and copies out of both into its own result; the
// apps' Gather calls (lammps, chem, physics) pass parts straight to
// Write/Fwrite/Dataset.Write/PutRecord, which keep or copy them without
// writing to them; apps' readInput drops its Bcast result.
package mpi

import (
	"fmt"
	"sync"

	"repro/internal/payload"
	"repro/internal/recorder"
	"repro/internal/sim"
)

// Op is a reduction operator.
type Op int

const (
	OpSum Op = iota
	OpMax
	OpMin
)

func (o Op) apply(a, b int64) int64 {
	switch o {
	case OpSum:
		return a + b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	}
	panic("mpi: unknown op")
}

// World is the shared state of a simulated MPI job (one communicator,
// MPI_COMM_WORLD).
type World struct {
	topo sim.Topology

	mu       sync.Mutex
	queues   map[p2pKey]chan message
	departed map[int]chan struct{} // closed when a rank detaches
	rv       *rendezvous
	collSeq  int64 // sequence number of the next collective
}

type p2pKey struct {
	src, dst, tag int
}

type message struct {
	clock uint64
	data  []byte
}

// NewWorld creates the shared MPI state for a topology.
func NewWorld(topo sim.Topology) *World {
	w := &World{
		topo:     topo,
		queues:   make(map[p2pKey]chan message),
		departed: make(map[int]chan struct{}),
	}
	w.rv = newRendezvous(topo.Ranks)
	return w
}

// departSignal returns the channel closed when rank detaches.
func (w *World) departSignal(rank int) chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	ch, ok := w.departed[rank]
	if !ok {
		ch = make(chan struct{})
		w.departed[rank] = ch
	}
	return ch
}

// markDeparted records a rank's departure, returning false if it had
// already departed.
func (w *World) markDeparted(rank int) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	ch, ok := w.departed[rank]
	if !ok {
		ch = make(chan struct{})
		w.departed[rank] = ch
	}
	select {
	case <-ch:
		return false
	default:
		close(ch)
		return true
	}
}

func (w *World) queue(k p2pKey) chan message {
	w.mu.Lock()
	defer w.mu.Unlock()
	q, ok := w.queues[k]
	if !ok {
		q = make(chan message, 4096)
		w.queues[k] = q
	}
	return q
}

// Proc is one rank's endpoint into the world.
type Proc struct {
	world  *World
	rank   int
	clock  *sim.Clock
	tracer *recorder.RankTracer
}

// NewProc creates rank's endpoint. The clock and tracer are shared with the
// other layers of that rank's I/O stack.
func NewProc(w *World, rank int, clock *sim.Clock, tracer *recorder.RankTracer) *Proc {
	if rank < 0 || rank >= w.topo.Ranks {
		panic(fmt.Sprintf("mpi: rank %d out of range", rank))
	}
	return &Proc{world: w, rank: rank, clock: clock, tracer: tracer}
}

// Rank returns this process's rank in MPI_COMM_WORLD.
func (p *Proc) Rank() int { return p.rank }

// Size returns the communicator size.
func (p *Proc) Size() int { return p.world.topo.Ranks }

// NodeOfRank returns the compute node hosting an arbitrary rank.
func (p *Proc) NodeOfRank(r int) int { return p.world.topo.NodeOf(r) }

// Nodes returns the number of compute nodes in the job.
func (p *Proc) Nodes() int { return p.world.topo.Nodes() }

func (p *Proc) emit(fn recorder.Func, ts uint64, args ...int64) {
	p.tracer.Emit(recorder.Record{
		Layer:  recorder.LayerMPI,
		Func:   fn,
		TStart: ts,
		TEnd:   p.clock.Stamp(),
	}, args)
}

// Send transmits data to rank dst with the given tag (eager/buffered send:
// the sender does not wait for the receiver).
func (p *Proc) Send(dst, tag int, data []byte) {
	ts := p.clock.Stamp()
	q := p.world.queue(p2pKey{src: p.rank, dst: dst, tag: tag})
	sendClock := p.clock.Now()
	q <- message{clock: sendClock, data: append([]byte(nil), data...)}
	p.clock.Advance(sim.MsgLatency / 2) // local injection overhead
	p.emit(recorder.FuncMPISend, ts, int64(dst), int64(tag), int64(len(data)))
}

// Recv receives the next message from rank src with the given tag, blocking
// until one arrives. The local clock advances to at least the sender's send
// time plus the transfer cost (the happens-before edge).
// A Recv on a departed (crashed/detached) sender
// returns nil after draining anything the sender queued before dying, so a
// surviving rank is never wedged on a dead peer.
func (p *Proc) Recv(src, tag int) []byte {
	ts := p.clock.Stamp()
	q := p.world.queue(p2pKey{src: src, dst: p.rank, tag: tag})
	var m message
	var ok bool
	select {
	case m = <-q:
		ok = true
	default:
		select {
		case m = <-q:
			ok = true
		case <-p.world.departSignal(src):
			// Dead peer: take a message it sent before dying, if any.
			select {
			case m = <-q:
				ok = true
			default:
			}
		}
	}
	if ok {
		p.clock.MergeAtLeast(m.clock + sim.MsgCost(int64(len(m.data))))
	}
	p.clock.Advance(sim.MsgLatency / 2)
	p.emit(recorder.FuncMPIRecv, ts, int64(src), int64(tag), int64(len(m.data)))
	return m.data
}

// Detach removes this rank from the job: current and future collective
// rounds complete without it, and peers blocked in Recv on it return nil.
// The harness detaches a rank whose body ends early (crash fault, I/O
// error, panic) so surviving ranks are not wedged at their next collective.
// Idempotent; must be called from outside any collective.
func (p *Proc) Detach() {
	if p.world.markDeparted(p.rank) {
		p.world.rv.depart()
	}
}

// collective runs one rendezvous: deposit, wait for all ranks, merge
// clocks, and return the completed round. bytes is the per-rank payload
// size used for cost accounting.
func (p *Proc) collective(fn recorder.Func, root int, bytes int64, deposit func(r *round)) *round {
	ts := p.clock.Stamp()
	r := p.world.rv.arrive(p.clock.Now(), deposit)
	cost := sim.BarrierCost + uint64(bytes)*sim.CollPerByte
	p.clock.MergeAtLeast(r.maxClock)
	p.clock.Advance(cost)
	p.emit(fn, ts, int64(root), bytes, r.seq)
	return r
}

// Barrier blocks until every rank arrives; all ranks leave at the same
// logical time.
func (p *Proc) Barrier() {
	p.collective(recorder.FuncMPIBarrier, -1, 0, nil)
}

// Bcast distributes root's data to every rank and returns it. The result
// is read-only and shared with every other rank; data may be reused once
// Bcast returns.
func (p *Proc) Bcast(root int, data []byte) []byte {
	bytes := int64(len(data))
	var own []byte
	if p.rank == root {
		own = clone(data) // only root's payload is delivered, so only root's is copied
	}
	r := p.collective(recorder.FuncMPIBcast, root, bytes, func(r *round) { r.put(p.Size(), p.rank, own) })
	return r.slots[root]
}

// Gather collects every rank's data at root. Root receives a slice indexed
// by rank; other ranks receive nil. The slots are read-only; data may be
// reused once Gather returns.
func (p *Proc) Gather(root int, data []byte) [][]byte {
	own := clone(data)
	r := p.collective(recorder.FuncMPIGather, root, int64(len(data)), func(r *round) { r.put(p.Size(), p.rank, own) })
	if p.rank != root {
		return nil
	}
	return r.slots
}

// Allgather collects every rank's header h and payload data at every rank.
// The header is copied, so h may be reused once Allgather returns; the
// payload is kept as the value it is, so a fill reference stays a reference
// and a Bytes payload's buffer belongs to the collective: the caller
// must not modify it. Both returned slices are read-only and shared with
// every other rank. A rank sends len(h) + data.Len() bytes.
func (p *Proc) Allgather(h []byte, data payload.P) ([][]byte, []payload.P) {
	own := clone(h)
	r := p.collective(recorder.FuncMPIAllgather, -1, int64(len(h))+data.Len(), func(r *round) {
		r.put(p.Size(), p.rank, own)
		if r.data == nil {
			r.data = make([]payload.P, p.Size())
		}
		r.data[p.rank] = data
	})
	return r.slots, r.data
}

// Reduce combines every rank's value with op; root gets the result, other
// ranks get 0.
func (p *Proc) Reduce(root int, value int64, op Op) int64 {
	r := p.reduce(recorder.FuncMPIReduce, root, value, op)
	if p.rank != root {
		return 0
	}
	return r
}

// Allreduce combines every rank's value with op; every rank gets the result.
func (p *Proc) Allreduce(value int64, op Op) int64 {
	return p.reduce(recorder.FuncMPIAllreduce, -1, value, op)
}

// reduce deposits value and returns the round's result, which the
// rendezvous reduces once, in rank order, when it releases the round.
func (p *Proc) reduce(fn recorder.Func, root int, value int64, op Op) int64 {
	r := p.collective(fn, root, 8, func(r *round) {
		if r.vals == nil {
			r.vals = make([]int64, p.Size())
		}
		r.vals[p.rank] = value
		r.op = op
	})
	return r.result
}

// Compute advances the local clock by the cost model's per-step compute
// time scaled by units, emitting no trace record (computation is not I/O).
func (p *Proc) Compute(units int) {
	if units <= 0 {
		units = 1
	}
	p.clock.Advance(uint64(units) * sim.LocalCompute)
}

// Clock exposes the rank's clock (used by the I/O layers sharing it).
func (p *Proc) Clock() *sim.Clock { return p.clock }
