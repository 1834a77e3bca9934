package pfs

import "repro/internal/obs"

// Telemetry for the simulated PFS data path, on the process-wide obs
// registry. Instruments are hoisted into package vars so the hot path under
// fs.mu is a handful of atomic adds (near-free no-ops when the registry is
// disabled — see internal/obs). Latency histograms record *simulated* cost
// in nanoseconds, so their contents are deterministic functions of the run,
// not of host scheduling.
//
// Naming (DESIGN.md §9): pfs.op.<op>.cost_ns, pfs.visibility_lag.<model>.
// Per-FileSystem counts (reads, writes, bytes, retries) are Stats fields,
// not instruments.
var (
	opCost = [...]*obs.Histogram{
		OpWrite:  obs.Default().Histogram("pfs.op.write.cost_ns"),
		OpRead:   obs.Default().Histogram("pfs.op.read.cost_ns"),
		OpCommit: obs.Default().Histogram("pfs.op.commit.cost_ns"),
		OpClose:  obs.Default().Histogram("pfs.op.close.cost_ns"),
	}

	// Ack-to-visible lag, per consistency model: host wall-clock nanoseconds
	// from a WAL write's acknowledgement (local append+fsync returned) to
	// the drainer's publish completing against this file system — the real
	// ack-vs-durable gap of the paper's relaxed-semantics argument, observed
	// live by the WAL drain loop (internal/wal) via ObserveVisibilityLag.
	visLag = [...]*obs.Histogram{
		Strong:   obs.Default().Histogram("pfs.visibility_lag.strong"),
		Commit:   obs.Default().Histogram("pfs.visibility_lag.commit"),
		Session:  obs.Default().Histogram("pfs.visibility_lag.session"),
		Eventual: obs.Default().Histogram("pfs.visibility_lag.eventual"),
	}
)

// ObserveVisibilityLag records one WAL-routed write's ack-to-visible lag
// (host wall ns) under the consistency model that governed it. Exported
// for internal/wal — the drainer is the only place both endpoints of the
// lag are known.
func ObserveVisibilityLag(sem Semantics, ns int64) {
	visLag[sem].Observe(ns)
}

// observeOp tallies one completed client data-path operation and its
// simulated cost.
func observeOp(kind OpKind, cost uint64) {
	opCost[kind].Observe(int64(cost))
}
