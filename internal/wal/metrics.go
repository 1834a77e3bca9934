package wal

import "repro/internal/obs"

// ackCostNS is the simulated cost of each acknowledgement the application
// sees (DESIGN.md §9). Per-log counts (acks, drained records, retries,
// queue peak, write-throughs, whether the log degraded) are Stats fields and
// the degraded flag, and recovery's are the frame.Stats recoverDirOn returns.
var ackCostNS = obs.Default().Histogram("wal.ack.cost_ns")
