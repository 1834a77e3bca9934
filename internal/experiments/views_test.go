package experiments

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/pfs"
	"repro/internal/report"
)

// viewArtifacts renders every artifact that is a view over the sweep's
// analyses.
func viewArtifacts(r *Results) map[string]string {
	fig1, fig1CSV := Figure1(r)
	return map[string]string{
		"table3": Table3(r), "table4": Table4(r), "figure1": fig1, "figure1.csv": fig1CSV,
		"figure3": Figure3(r), "verdicts": VerdictsReport(r), "metadeps": MetaTable(r),
	}
}

// oracleArtifacts renders the same artifacts from the per-pass core calls
// over a fresh extraction of each trace: the oracle the views must match.
func oracleArtifacts(t *testing.T, r *Results) map[string]string {
	t.Helper()
	ctx := context.Background()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var (
		t3       []report.Table3Row
		t4       []report.Table4Row
		f1       []report.Figure1Row
		f3       []report.Figure3Row
		meta     []report.MetaRow
		verdicts []struct {
			Config  string
			Verdict core.Verdict
		}
	)
	for _, name := range r.Ordered {
		tr := r.ByName[name].Trace
		fas, err := core.ExtractSharedCtx(ctx, tr, 1)
		check(err)
		patterns, err := core.ClassifyHighLevelParallelCtx(ctx, fas, core.HLOptions{WorldSize: r.Scale.Ranks}, 1)
		check(err)
		ms, err := core.ConflictsAllForFilesCtx(ctx, fas, []pfs.Semantics{pfs.Session, pfs.Commit}, 1)
		check(err)
		global, err := core.GlobalPatternParallelCtx(ctx, fas, 1)
		check(err)
		local, err := core.LocalPatternParallelCtx(ctx, fas, 1)
		check(err)
		census, err := core.MetadataCensusParallelCtx(ctx, tr, 1)
		check(err)
		mcs, err := core.DetectMetadataConflictsParallelCtx(ctx, tr, 1)
		check(err)

		t3 = append(t3, report.Table3Row{Config: name, Patterns: patterns})
		t4 = append(t4, report.Table4Row{Config: name, Library: tr.Meta.Library,
			Session: ms[0].Signature, Commit: ms[1].Signature})
		f1 = append(f1, report.Figure1Row{Config: name, Global: global, Local: local})
		f3 = append(f3, report.Figure3Row{Config: name, Census: census})
		meta = append(meta, report.MetaRow{Config: name, Signature: core.MetaSignatureOf(mcs), Pairs: len(mcs)})
		verdicts = append(verdicts, struct {
			Config  string
			Verdict core.Verdict
		}{name, core.VerdictFrom(ms[0].Signature, ms[1].Signature)})
	}
	return map[string]string{
		"table3": report.Table3(t3), "table4": report.Table4(t4),
		"figure1": report.Figure1(f1), "figure1.csv": report.Figure1CSV(f1),
		"figure3": report.Figure3(f3), "verdicts": report.Verdicts(verdicts), "metadeps": report.MetaTable(meta),
	}
}

// requireViewsMatchOracle fails t unless every view over r's analyses
// renders exactly what the per-pass oracle renders.
func requireViewsMatchOracle(t *testing.T, label string, r *Results) {
	t.Helper()
	if len(r.Ordered) != 25 {
		t.Fatalf("%s: %d configurations, want 25", label, len(r.Ordered))
	}
	want := oracleArtifacts(t, r)
	for name, got := range viewArtifacts(r) {
		if got != want[name] {
			t.Errorf("%s: %s view diverges from the per-pass oracle\nview:\n%s\noracle:\n%s", label, name, got, want[name])
		}
	}
}

// TestViewsMatchPerPassOracle: Tables 3-4, Figures 1 and 3, the verdicts
// and the metadata-dependency table read each configuration's one
// analysis; they must render what the per-pass core calls render, for a
// strong sweep and a session sweep.
func TestViewsMatchPerPassOracle(t *testing.T) {
	ctx := context.Background()
	strong := testResults(t)
	requireViewsMatchOracle(t, "strong", strong)

	session := TestScale()
	session.Semantics = pfs.Session
	r, err := RunAllCtx(ctx, session, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireViewsMatchOracle(t, "session", r)
}
