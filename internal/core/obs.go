package core

import (
	"time"

	"repro/internal/obs"
)

// Telemetry for the parallel analysis engine. Pool instruments are updated
// inside ParallelForCtx (one atomic add per task — a no-op load when the
// registry is disabled); pass-level spans and duration histograms wrap each
// analysis entry point, so a -trace-spans export shows the extraction /
// conflict / patterns / census / metadata passes as nested intervals with
// per-worker lanes underneath.
//
// Naming (DESIGN.md §9): core.pool.*, core.pass.<pass>.*.
var (
	poolRuns    = obs.Default().Counter("core.pool.runs")
	poolTasks   = obs.Default().Counter("core.pool.tasks")
	poolSerial  = obs.Default().Counter("core.pool.serial_runs")
	poolWorkers = obs.Default().Gauge("core.pool.workers")
	poolQueue   = obs.Default().Gauge("core.pool.queue_peak")
	// poolUtilization is the high-water percentage of (sum of worker active
	// time) / (pool size x wall time) over pool runs — 100 means every
	// worker stayed busy until the queue drained; low values expose uneven
	// shards at the tail of a pass.
	poolUtilization = obs.Default().Gauge("core.pool.utilization_pct")

	passDur = map[string]*obs.Histogram{
		"extract":         obs.Default().Histogram("core.pass.extract.wall_ns"),
		"fused-conflicts": obs.Default().Histogram("core.pass.fused-conflicts.wall_ns"),
		"patterns":        obs.Default().Histogram("core.pass.patterns.wall_ns"),
		"classify":        obs.Default().Histogram("core.pass.classify.wall_ns"),
		"meta-conflicts":  obs.Default().Histogram("core.pass.meta-conflicts.wall_ns"),
	}
)

// startPass opens a span plus a wall-clock histogram sample for one
// analysis pass. The returned func must be called when the pass ends; it is
// cheap enough to defer. When both the registry and tracer are disabled the
// cost is two atomic loads and a clock read.
func startPass(name string) func() {
	span := obs.Default().Tracer().Start(name, "core.pass")
	h := passDur[name]
	start := time.Now()
	return func() {
		span.End()
		h.Observe(time.Since(start).Nanoseconds())
	}
}
