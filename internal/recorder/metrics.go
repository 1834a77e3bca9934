package recorder

import "repro/internal/obs"

// Degraded-scan telemetry: a lenient scan's salvage outcome on the
// process-wide registry, so a pipeline that quietly ate a damaged trace
// still shows up in the metrics snapshot (DESIGN.md §9 naming:
// recorder.salvage.*).
var (
	salvageStreamsFull       = obs.Default().Counter("recorder.salvage.streams_full")
	salvageStreamsTruncated  = obs.Default().Counter("recorder.salvage.streams_truncated")
	salvageStreamsUnreadable = obs.Default().Counter("recorder.salvage.streams_unreadable")
	salvageRecordsKept       = obs.Default().Counter("recorder.salvage.records_kept")
	salvageRecordsDropped    = obs.Default().Counter("recorder.salvage.records_dropped")
)

// Observe publishes one lenient scan's salvage outcome. The format-sniffing
// lenient opener in internal/recorder/colfmt calls it once per scan.
func (s *Salvage) Observe() {
	salvageStreamsFull.Add(int64(s.Full))
	salvageStreamsTruncated.Add(int64(s.Truncated))
	salvageStreamsUnreadable.Add(int64(s.Unreadable))
	salvageRecordsKept.Add(int64(s.Records))
	salvageRecordsDropped.Add(int64(s.Dropped))
}
