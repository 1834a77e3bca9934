package colfmt

import "repro/internal/obs"

// Columnar codec telemetry on the process-wide registry (DESIGN.md §9
// naming: recorder.colfmt.*): how streams were encoded, how many of their
// bytes the decoder mapped, how well the path dictionary compressed. What a
// lenient scan dropped is its recorder.Salvage.
var (
	blocksEncoded = obs.Default().Counter("recorder.colfmt.blocks_encoded")
	blocksDecoded = obs.Default().Counter("recorder.colfmt.blocks_decoded")
	bytesMapped   = obs.Default().Counter("recorder.colfmt.bytes_mapped")
	dictEntries   = obs.Default().Counter("recorder.colfmt.dict_entries")
	dictHits      = obs.Default().Counter("recorder.colfmt.dict_hits")
)
