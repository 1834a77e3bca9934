package consistency

import "repro/internal/obs"

// checkWall is each checkHistory call's host wall time (DESIGN.md §9). What a check
// consumed and decided is its Result.
var checkWall = obs.Default().Histogram("consistency.check.wall_ns")
