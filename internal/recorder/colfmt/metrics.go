package colfmt

import "repro/internal/obs"

// Columnar codec telemetry on the process-wide registry (DESIGN.md §9
// naming: recorder.colfmt.*): how streams were encoded, how their bytes
// reached the decoder (mapped vs read through the backend), how well the
// path dictionary compressed, and what lenient scans had to drop.
var (
	blocksEncoded = obs.Default().Counter("recorder.colfmt.blocks_encoded")
	blocksDecoded = obs.Default().Counter("recorder.colfmt.blocks_decoded")
	bytesMapped   = obs.Default().Counter("recorder.colfmt.bytes_mapped")
	bytesRead     = obs.Default().Counter("recorder.colfmt.bytes_read")
	dictEntries   = obs.Default().Counter("recorder.colfmt.dict_entries")
	dictHits      = obs.Default().Counter("recorder.colfmt.dict_hits")

	salvageBlocksSkipped  = obs.Default().Counter("recorder.colfmt.salvage.blocks_skipped")
	salvageRecordsDropped = obs.Default().Counter("recorder.colfmt.salvage.records_dropped")
)
