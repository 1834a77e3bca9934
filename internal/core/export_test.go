package core

// AnalyzeConflictsOracle exposes the per-model conflict oracle to the
// external core_test package, whose registry-wide equivalence test checks
// the fused engine against it.
var AnalyzeConflictsOracle = analyzeConflictsOracle
