package experiments

import (
	"repro/internal/ckpt"
	"repro/internal/storage"
)

// DefaultScale is the paper's small configuration: 8 nodes × 8 processes.
func DefaultScale() Scale {
	return Scale{Ranks: 64, PPN: 8, Seed: 1}
}

// OpenCheckpoint opens (or creates) the durable checkpoint store for a
// registry sweep at scale s on the local OS disk. Pass the returned store
// in SweepOptions.Checkpoint; set SweepOptions.Resume to replay what a
// previous (possibly crashed) run already committed.
func OpenCheckpoint(dir string, s Scale) (*ckpt.Store, error) {
	return OpenCheckpointOn(storage.OS(), dir, s)
}

// ReplayedNames returns the names of configurations served from the journal,
// in registry order.
func (r *Results) ReplayedNames() []string {
	var out []string
	for _, name := range r.Ordered {
		if r.ByName[name].Replayed {
			out = append(out, name)
		}
	}
	return out
}

// ExecutedNames returns the names of configurations that actually ran, in
// registry order.
func (r *Results) ExecutedNames() []string {
	var out []string
	for _, name := range r.Ordered {
		if !r.ByName[name].Replayed {
			out = append(out, name)
		}
	}
	return out
}
