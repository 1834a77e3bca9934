package sim

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// SameNode reports whether two ranks share a compute node.
func (t Topology) SameNode(a, b int) bool { return t.NodeOf(a) == t.NodeOf(b) }

// RanksOnNode returns the ranks hosted on the given node, in rank order.
func (t Topology) RanksOnNode(node int) []int {
	lo := node * t.PPN
	hi := lo + t.PPN
	if hi > t.Ranks {
		hi = t.Ranks
	}
	if lo >= hi {
		return nil
	}
	out := make([]int, 0, hi-lo)
	for r := lo; r < hi; r++ {
		out = append(out, r)
	}
	return out
}
