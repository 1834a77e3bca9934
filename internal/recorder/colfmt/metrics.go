package colfmt

import "repro/internal/obs"

// Columnar decode telemetry on the process-wide registry (DESIGN.md §9
// naming: recorder.colfmt.*): how many blocks were decoded and how many
// stream bytes the decoder mapped. The writer's counters live with it in
// package recorder; what a lenient scan dropped is its recorder.Salvage.
var (
	blocksDecoded = obs.Default().Counter("recorder.colfmt.blocks_decoded")
	bytesMapped   = obs.Default().Counter("recorder.colfmt.bytes_mapped")
)
