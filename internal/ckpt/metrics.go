package ckpt

import "repro/internal/obs"

// Checkpoint-store telemetry on the process-wide registry (DESIGN.md §9
// naming: ckpt.journal.* for the write path). What recovery salvaged is
// Store.Stats, and whether a key was journaled is Lookup's result. The
// fsync histogram records host wall time — the one real-durability cost in
// an otherwise simulated stack — so it is the only ckpt instrument that
// varies between identical runs.
var (
	journalAppends = obs.Default().Counter("ckpt.journal.appends")
	journalBytes   = obs.Default().Counter("ckpt.journal.bytes")
	journalFsyncNS = obs.Default().Histogram("ckpt.journal.fsync_ns")
)
