package experiments

// DefaultScale is the paper's small configuration: 8 nodes × 8 processes.
func DefaultScale() Scale {
	return Scale{Ranks: 64, PPN: 8, Seed: 1}
}
