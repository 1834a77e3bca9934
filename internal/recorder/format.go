package recorder

import (
	"errors"
	"fmt"
)

// ErrTruncated reports a rank stream that ended before its declared
// content did — a crashed or torn-off writer. The columnar cursor
// (internal/recorder/colfmt) returns it after yielding every record decoded
// before the cut, so callers can degrade gracefully instead of discarding
// the salvageable prefix (see colfmt.OpenRanksLenientOn).
var ErrTruncated = errors.New("recorder: trace stream truncated")

// TruncatedError is the concrete truncation error: it carries how many
// records the stream header declared and how many decoded before the cut, so
// salvage reporting can say exactly what was kept and what was dropped. It
// matches errors.Is(err, ErrTruncated).
type TruncatedError struct {
	Declared uint64 // records the header promised (0 if the cut precedes the header)
	Decoded  int    // records recovered before the cut
}

func (e *TruncatedError) Error() string {
	if e.Declared > 0 {
		return fmt.Sprintf("%v after %d records (%d of %d declared dropped)",
			ErrTruncated, e.Decoded, e.dropped(), e.Declared)
	}
	return fmt.Sprintf("%v after %d records", ErrTruncated, e.Decoded)
}

func (e *TruncatedError) Unwrap() error { return ErrTruncated }

// dropped returns how many declared records were lost to the cut (0 when
// the declared count is unknown).
func (e *TruncatedError) dropped() int {
	if e.Declared > uint64(e.Decoded) {
		return int(e.Declared) - e.Decoded
	}
	return 0
}

// RankFileName returns the per-rank stream file name ("rank_NNNNN.rec") of
// a trace directory.
func RankFileName(rank int) string {
	return fmt.Sprintf("rank_%05d.rec", rank)
}

// Salvage reports how a degraded-mode scan went: how many rank streams
// were read fully, how many were truncated but partially recovered, and
// how many were unreadable, plus the record counts behind the analysis. It
// is the "what survived" half of colfmt.OpenRanksLenientOn's contract,
// which semfs.AnalyzeDirLenientOn returns beside the analysis.
type Salvage struct {
	Ranks      int // rank streams the metadata declares
	Full       int // streams decoded end-to-end
	Truncated  int // streams cut mid-record; valid prefix recovered
	Unreadable int // streams missing or corrupt beyond salvage
	Records    int // total records recovered
	Salvaged   int // records recovered from truncated/corrupt streams
	// Dropped counts records declared by damaged streams' headers but lost
	// to the cut (0 when a stream died before declaring its count).
	Dropped int
	// Blocks and BlocksDropped are the per-block accounting: column blocks
	// decoded cleanly vs corrupt blocks individually skipped mid-stream.
	// Records behind a torn tail are accounted in Dropped, not here — a cut
	// hides how many blocks it ate, while the header-declared count keeps
	// the record loss exact.
	Blocks        int
	BlocksDropped int
	// Errs holds one error per degraded stream, wrapped with the file name.
	Errs []error
}

// Degraded reports whether anything less than a full load happened.
func (s *Salvage) Degraded() bool { return s.Truncated > 0 || s.Unreadable > 0 }

func (s *Salvage) String() string {
	out := fmt.Sprintf("salvage: %d/%d streams full, %d truncated, %d unreadable; %d records (%d salvaged, %d dropped)",
		s.Full, s.Ranks, s.Truncated, s.Unreadable, s.Records, s.Salvaged, s.Dropped)
	if s.BlocksDropped > 0 {
		out += fmt.Sprintf("; %d blocks kept, %d skipped", s.Blocks, s.BlocksDropped)
	}
	return out
}
