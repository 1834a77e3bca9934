package wal

import "repro/internal/obs"

// ackCostNS is the simulated cost of each acknowledgement the application
// sees (DESIGN.md §9). Per-log counts (acks, drained records, retries,
// write-throughs) are Stats fields, whether the log degraded is its degraded
// flag, and recovery's counts are the frame.Stats recoverDirOn returns.
var ackCostNS = obs.Default().Histogram("wal.ack.cost_ns")
