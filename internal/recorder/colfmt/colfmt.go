// Package colfmt is the columnar on-disk trace format (SEMFSCOL1), the
// scalable counterpart to the record-framed SEMFSTR1 streams in package
// recorder. Real HPC tracing produces hundreds of millions of operations per
// run (Recorder, IPDPSW 2020); loading such traces through a heap-per-record
// decoder dominates analysis time and memory. Columnar streams fix both
// ends: the encoder stores each rank's records as column blocks —
// delta-encoded timestamps, dictionary-coded paths, packed args — and the
// decoder yields records zero-copy from the (memory-mapped) column bytes
// through a cursor, which directory loads walk to materialize each rank.
//
// The stream layout and its constants are package colwire's.
package colfmt

import (
	"io"

	"repro/internal/recorder"
)

// EncodeOptions tunes the encoder.
type EncodeOptions struct {
	// BlockRecords is the record count per data block (default
	// colwire.BlockRecords). Small
	// blocks salvage at finer grain; large blocks amortize framing better.
	BlockRecords int
}

// EncodeStream writes records, in the given order, as rank's columnar
// stream: each record goes into a rank log as a running rank would emit
// it, and the log goes through the trace writer. The input slice is not
// retained.
func EncodeStream(w io.Writer, rank int, records []recorder.Record, opts EncodeOptions) error {
	rt := recorder.NewRankTracer(rank)
	for i := range records {
		rt.Emit(records[i], records[i].Args)
	}
	return rt.WriteStream(w, opts.BlockRecords)
}
