package core

import "repro/internal/recorder"

// traceOf returns the trace whose rank streams are perRank as given: no
// sort, no alignment, no validation.
func traceOf(meta recorder.Meta, perRank [][]recorder.Record) *recorder.Trace {
	tracers := make([]*recorder.RankTracer, len(perRank))
	for r, rs := range perRank {
		tracers[r] = recorder.NewRankTracer(r)
		for _, rec := range rs {
			tracers[r].Emit(rec, rec.Args)
		}
	}
	tr, err := recorder.TraceOf(meta, tracers)
	if err != nil {
		panic(err)
	}
	return tr
}

// AnalyzeConflictsOracle exposes the per-model conflict oracle to the
// external core_test package, whose registry-wide equivalence test checks
// the fused engine against it.
var AnalyzeConflictsOracle = analyzeConflictsOracle

// DiffHBOracle exposes the happens-before oracle comparison to the external
// core_test package, whose registry-wide test checks BuildHB against it.
var DiffHBOracle = diffHBOracle

// Any reports whether any class is present.
func (s MetaSignature) Any() bool { return s.CreateUse || s.RemoveUse || s.ResizeUse }

// Used reports whether a given operation appears at all.
func (c *Census) Used(f recorder.Func) bool {
	for _, m := range c.Counts {
		if m[f] > 0 {
			return true
		}
	}
	return false
}
