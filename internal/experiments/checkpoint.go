package experiments

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/storage"
)

// Checkpoint/resume support for registry sweeps: the store's manifest pins
// the sweep's full identity (scale, seed, consistency model, workload
// parameters), so a -resume against a directory written by a different run
// shape fails with ckpt.ErrMismatch instead of replaying foreign results.

// checkpointKind is the manifest kind of registry-sweep stores.
const checkpointKind = "experiments.sweep"

// OpenCheckpointOn is OpenCheckpoint against an explicit storage backend —
// how the CLIs' -backend flag routes sweep checkpoints onto the object
// store or a fault-wrapped store.
func OpenCheckpointOn(b storage.Backend, dir string, s Scale) (*ckpt.Store, error) {
	return ckpt.OpenOn(b, dir, ckpt.Manifest{
		Kind:      checkpointKind,
		Ranks:     s.Ranks,
		PPN:       s.PPN,
		Seed:      s.Seed,
		Semantics: s.Semantics.String(),
		Params:    fmt.Sprintf("%+v", s.Params),
	})
}

// ResumeSummary reports how a checkpointed sweep's results were obtained.
type ResumeSummary struct {
	Replayed int // configurations served from the journal
	Executed int // configurations that actually ran
}

// Summarize counts replayed versus executed configurations in r.
func (r *Results) Summarize() ResumeSummary {
	var s ResumeSummary
	for _, name := range r.Ordered {
		if r.ByName[name].Replayed {
			s.Replayed++
		} else {
			s.Executed++
		}
	}
	return s
}
