// Package sim provides the deterministic simulation substrate shared by the
// MPI runtime, the parallel file system and the I/O layers: per-rank logical
// clocks with configurable skew, the node topology, a deterministic RNG and
// the I/O cost model.
//
// All time in the simulation is logical and expressed in nanoseconds as
// uint64. Every rank owns a Clock; operations advance it by amounts taken
// from the cost model, and MPI synchronization merges clocks with max(), so the
// resulting timestamps form a total order per rank that is consistent with
// the happens-before partial order across ranks — exactly the property the
// paper's conflict-detection methodology (Section 5.2) relies on.
package sim

import "fmt"

// Clock is a per-rank logical clock. Now reports "true" simulation time;
// Stamp reports the time as observed by the rank's (skewed) local clock, the
// value a real tracer would record. The recorder removes the skew via
// barrier alignment, mirroring the paper's methodology.
type Clock struct {
	now  uint64 // true logical time, ns
	skew int64  // constant local-clock offset, ns (may be negative)
}

// NewClock returns a clock starting at time start with the given constant skew.
func NewClock(start uint64, skew int64) *Clock {
	return &Clock{now: start, skew: skew}
}

// Now returns the true logical time in nanoseconds.
func (c *Clock) Now() uint64 { return c.now }

// Stamp returns the timestamp the rank's local clock would record now.
func (c *Clock) Stamp() uint64 {
	s := int64(c.now) + c.skew
	if s < 0 {
		return 0
	}
	return uint64(s)
}

// Advance moves the clock forward by d nanoseconds and returns the new time.
func (c *Clock) Advance(d uint64) uint64 {
	c.now += d
	return c.now
}

// MergeAtLeast advances the clock to at least t (used when receiving a
// message or leaving a collective: local time becomes the max of the
// participants' times). It never moves the clock backwards.
func (c *Clock) MergeAtLeast(t uint64) {
	if t > c.now {
		c.now = t
	}
}

func (c *Clock) String() string {
	return fmt.Sprintf("clock{now=%dns skew=%dns}", c.now, c.skew)
}

// Topology maps MPI ranks onto compute nodes. Ranks are placed block-wise:
// ranks [0,PPN) on node 0, [PPN,2*PPN) on node 1, and so on, matching the
// paper's "8 nodes with 8 processes per node" style of allocation.
type Topology struct {
	Ranks int // total number of ranks
	PPN   int // processes per node
}

// NewTopology returns a topology with the given total ranks and processes
// per node. It panics if either is not positive or ranks is not divisible
// into whole nodes only when ppn > ranks (a single partially-filled node is
// allowed, as on real systems).
func NewTopology(ranks, ppn int) Topology {
	if ranks <= 0 || ppn <= 0 {
		panic(fmt.Sprintf("sim: invalid topology ranks=%d ppn=%d", ranks, ppn))
	}
	return Topology{Ranks: ranks, PPN: ppn}
}

// Nodes returns the number of compute nodes in the allocation.
func (t Topology) Nodes() int { return (t.Ranks + t.PPN - 1) / t.PPN }

// NodeOf returns the node hosting the given rank.
func (t Topology) NodeOf(rank int) int {
	if rank < 0 || rank >= t.Ranks {
		panic(fmt.Sprintf("sim: rank %d out of range [0,%d)", rank, t.Ranks))
	}
	return rank / t.PPN
}
