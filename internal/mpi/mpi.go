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
// Collective payloads are copied once, when a rank deposits them, and the
// released round is shared: the byte slices Bcast, Gather, Allgather,
// Scatter and Alltoall return are read-only and may be the same slices
// other ranks receive, while the caller may reuse its own deposit buffers
// as soon as the call returns. Allgather deposits the concatenation of its
// parts, so a header and a payload cost that one copy. A collective
// therefore costs O(total payload), not O(ranks × total payload). Every
// caller in the module only reads its results: mpiio's two-phase
// WriteAtAll/WriteAll deposit a stack header and the payload, decode the
// gathered requests, and writeDomain writes a run of one piece straight
// from its slot (the file system keeps a written buffer and never modifies
// it) and merges the pieces of any other run into a fresh buffer;
// ReadAtAll copies out of both phases' slots into its own result; the
// apps' Gather calls (lammps, chem, physics) pass parts straight to
// Write/Fwrite/Dataset.Write/PutRecord, which keep or copy them without
// writing to them; apps' readInput drops its Bcast result.
package mpi

import (
	"fmt"
	"sync"

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

// collective runs one rendezvous: deposit the concatenation of parts, wait
// for all ranks, merge clocks, and return the completed round. bytes is the
// per-rank payload size used for cost accounting.
func (p *Proc) collective(fn recorder.Func, root int, bytes int64, parts ...[]byte) *round {
	ts := p.clock.Stamp()
	r := p.world.rv.arrive(p.rank, p.clock.Now(), parts)
	cost := sim.BarrierCost + uint64(bytes)*sim.CollPerByte
	p.clock.MergeAtLeast(r.maxClock)
	p.clock.Advance(cost)
	p.emit(fn, ts, int64(root), bytes, r.seq)
	return r
}

// Barrier blocks until every rank arrives; all ranks leave at the same
// logical time.
func (p *Proc) Barrier() {
	p.collective(recorder.FuncMPIBarrier, -1, 0)
}

// Bcast distributes root's data to every rank and returns it. The result
// is read-only and shared with every other rank; data may be reused once
// Bcast returns.
func (p *Proc) Bcast(root int, data []byte) []byte {
	bytes := int64(len(data))
	if p.rank != root {
		data = nil // only root's payload is delivered, so only root's is copied
	}
	r := p.collective(recorder.FuncMPIBcast, root, bytes, data)
	return r.slots[root]
}

// Gather collects every rank's data at root. Root receives a slice indexed
// by rank; other ranks receive nil. The slots are read-only; data may be
// reused once Gather returns.
func (p *Proc) Gather(root int, data []byte) [][]byte {
	r := p.collective(recorder.FuncMPIGather, root, int64(len(data)), data)
	if p.rank != root {
		return nil
	}
	return r.slots
}

// Allgather collects every rank's data, the concatenation of its parts, at
// every rank. The returned slice and its slots are read-only and shared
// with every other rank; the parts may be reused once Allgather returns.
func (p *Proc) Allgather(parts ...[]byte) [][]byte {
	var n int64
	for _, pt := range parts {
		n += int64(len(pt))
	}
	r := p.collective(recorder.FuncMPIAllgather, -1, n, parts...)
	return r.slots
}

// Reduce combines every rank's value with op; root gets the result, other
// ranks get 0.
func (p *Proc) Reduce(root int, value int64, op Op) int64 {
	r := p.collective(recorder.FuncMPIReduce, root, 8, encodeInt64(value))
	if p.rank != root {
		return 0
	}
	return reduceSlots(r.slots, op)
}

// Allreduce combines every rank's value with op; every rank gets the result.
func (p *Proc) Allreduce(value int64, op Op) int64 {
	r := p.collective(recorder.FuncMPIAllreduce, -1, 8, encodeInt64(value))
	return reduceSlots(r.slots, op)
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

func reduceSlots(slots [][]byte, op Op) int64 {
	acc := decodeInt64(slots[0])
	for _, s := range slots[1:] {
		acc = op.apply(acc, decodeInt64(s))
	}
	return acc
}

func encodeInt64(v int64) []byte {
	b := make([]byte, 8)
	u := uint64(v)
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
	return b
}

func decodeInt64(b []byte) int64 {
	var u uint64
	for i := 0; i < 8 && i < len(b); i++ {
		u |= uint64(b[i]) << (8 * i)
	}
	return int64(u)
}
