package consistency

import "repro/internal/obs"

// checkWall is each Check's host wall time (DESIGN.md §9). What a check
// consumed and decided is its Result.
var checkWall = obs.Default().Histogram("consistency.check.wall_ns")

// Flight-recorder event classes: every spec verdict lands in the ring, and
// a rejection both records the violating op (read seq, first bad offset,
// implicated write's causal trace) and triggers the armed post-mortem dump
// — a consistency violation is precisely the moment the recent-op ring is
// worth its memory.
var (
	flightVerdict   = obs.FlightClassFor("consistency.verdict")
	flightViolation = obs.FlightClassFor("consistency.violation")
)

// recordVerdictFlight records one check's outcome (a = events checked,
// b = 1 accepted / 0 rejected).
func recordVerdictFlight(events int, ok bool) {
	b := int64(0)
	if ok {
		b = 1
	}
	obs.Flight().Record(flightVerdict, -1, 0, int64(events), b)
}

// recordViolationFlight records the counterexample and dumps the ring. The
// event carries the violating read's history seq (a), the first violating
// byte (b), the reader's rank, and the implicated write's trace ID — what
// `semrepro -flight-dump` prints as the attribution line.
func recordViolationFlight(v *Violation) {
	var trace uint64
	if v.Write != nil {
		trace = v.Write.Trace
	}
	obs.Flight().Record(flightViolation, int32(v.Read.Rank), trace, int64(v.Read.Seq), v.Offset)
	obs.TriggerFlightDump("consistency-violation")
}
