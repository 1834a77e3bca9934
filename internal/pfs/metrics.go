package pfs

import "repro/internal/obs"

// Telemetry for the simulated PFS data path, on the process-wide obs
// registry. Instruments are hoisted into package vars so the hot path under
// fs.mu is a handful of atomic adds (near-free no-ops when the registry is
// disabled — see internal/obs). Latency histograms record *simulated* cost
// in nanoseconds, so their contents are deterministic functions of the run,
// not of host scheduling.
//
// Naming (DESIGN.md §9): pfs.op.<op>.cost_ns.
// Per-FileSystem counts (reads, writes, bytes, retries) are Stats fields,
// not instruments.
var opCost = [...]*obs.Histogram{
	OpWrite:  obs.Default().Histogram("pfs.op.write.cost_ns"),
	OpRead:   obs.Default().Histogram("pfs.op.read.cost_ns"),
	OpCommit: obs.Default().Histogram("pfs.op.commit.cost_ns"),
	OpClose:  obs.Default().Histogram("pfs.op.close.cost_ns"),
}

// observeOp tallies one completed client operation and its simulated cost;
// only the four intercepted kinds have a histogram.
func observeOp(kind OpKind, cost uint64) {
	if int(kind) < len(opCost) {
		opCost[kind].Observe(int64(cost))
	}
}
