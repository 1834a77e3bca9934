package core

import "repro/internal/obs"

// Telemetry for the parallel analysis engine. Pool instruments are updated
// inside ParallelForCtx (one atomic add per run — a no-op load when the
// registry is disabled); a span wraps each analysis entry point, so a
// -trace-spans export shows the extraction / conflict / patterns / census /
// metadata passes as nested intervals with per-worker lanes underneath. The
// span is the one record of a pass's (and a worker's) wall time.
//
// Naming (DESIGN.md §9): core.pool.*.
var (
	poolRuns    = obs.Default().Counter("core.pool.runs")
	poolTasks   = obs.Default().Counter("core.pool.tasks")
	poolSerial  = obs.Default().Counter("core.pool.serial_runs")
	poolWorkers = obs.Default().Gauge("core.pool.workers")
	poolQueue   = obs.Default().Gauge("core.pool.queue_peak")
)

// startPass opens a span for one analysis pass. The returned func must be
// called when the pass ends; it is cheap enough to defer. When the tracer
// is disabled the cost is one atomic load.
func startPass(name string) func() {
	return obs.Default().Tracer().Start(name, "core.pass").End
}
