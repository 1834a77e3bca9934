package wal

import "repro/internal/obs"

// Host-side write-ahead-log telemetry on the process-wide registry
// (DESIGN.md §9 naming: wal.append.* for the local durable-append path,
// wal.ack.* for the acknowledgement the application sees, wal.drain.* for
// the background replay into the pfs backend, wal.degrade.* for
// write-through fallbacks). Per-log counts (acks, drained records, retries,
// queue peak, write-throughs) are Stats fields, and recovery's are the
// frame.Stats RecoverDirOn returns. As with ckpt.journal.fsync_ns, the
// fsync histogram records host wall time — real durability cost — so it
// varies between otherwise identical runs; every other instrument is a
// deterministic function of the run.
var (
	appendFsyncNS = obs.Default().Histogram("wal.append.fsync_ns")

	ackCostNS = obs.Default().Histogram("wal.ack.cost_ns")

	drainBatches   = obs.Default().Counter("wal.drain.batches")
	drainBackoffNS = obs.Default().Histogram("wal.drain.backoff_ns")
	drainErrors    = obs.Default().Counter("wal.drain.errors")

	degradeLogFailures = obs.Default().Counter("wal.degrade.log_failures")
)

// Flight-recorder event classes: the degrade transitions are exactly the
// "something went sideways" moments a post-mortem wants in the ring.
var (
	flightDegrade      = obs.FlightClassFor("wal.degrade")
	flightWriteThrough = obs.FlightClassFor("wal.write-through")
)
