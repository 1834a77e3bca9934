package report

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/recorder"
)

func TestTable1ContainsRegistry(t *testing.T) {
	out := Table1()
	for _, name := range []string{"Lustre", "UnifyFS", "NFS", "PLFS"} {
		if !strings.Contains(out, name) {
			t.Errorf("Table1 missing %s:\n%s", name, out)
		}
	}
	for _, heading := range []string{"Strong Consistency", "Commit Consistency", "Session Consistency", "Eventual Consistency"} {
		if !strings.Contains(out, heading) {
			t.Errorf("Table1 missing %q", heading)
		}
	}
}

func TestTable3PlacesAppsInCells(t *testing.T) {
	rows := []Table3Row{
		{Config: "AppA", Patterns: []core.HighLevelPattern{{X: core.N, Y: core.One, Layout: core.LayoutStrided}}},
		{Config: "AppB", Patterns: []core.HighLevelPattern{{X: core.One, Y: core.One, Layout: core.LayoutConsecutive}}},
		{Config: "AppB", Patterns: []core.HighLevelPattern{{X: core.One, Y: core.One, Layout: core.LayoutConsecutive}}},
	}
	out := Table3(rows)
	if !strings.Contains(out, "AppA") || !strings.Contains(out, "AppB") {
		t.Fatalf("apps missing from table:\n%s", out)
	}
	// Dedup: AppB appears once in the 1-1 consecutive cell.
	if strings.Count(out, "AppB") != 1 {
		t.Fatalf("AppB duplicated:\n%s", out)
	}
}

func TestTable4Marks(t *testing.T) {
	rows := []Table4Row{
		{Config: "FLASH", Library: "HDF5",
			Session: core.ConflictSignature{WAWSame: true, WAWDiff: true},
			Commit:  core.ConflictSignature{}},
		{Config: "GTC", Library: "POSIX"},
	}
	out := Table4(rows)
	if !strings.Contains(out, "conflicts disappear") {
		t.Fatalf("FLASH commit-difference marker missing:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	var flashLine string
	for _, l := range lines {
		if strings.HasPrefix(l, "FLASH") {
			flashLine = l
		}
	}
	if strings.Count(flashLine, "x") != 2 {
		t.Fatalf("FLASH row should have exactly 2 marks: %q", flashLine)
	}
}

func TestFigure1BarsSumSane(t *testing.T) {
	rows := []Figure1Row{
		{Config: "X", Global: core.PatternMix{Consecutive: 3, Random: 1}, Local: core.PatternMix{Consecutive: 4}},
	}
	out := Figure1(rows)
	if !strings.Contains(out, "c= 75.0%") || !strings.Contains(out, "c=100.0%") {
		t.Fatalf("percentages wrong:\n%s", out)
	}
	csv := Figure1CSV(rows)
	if !strings.Contains(csv, "X,global,75.0,0.0,25.0") || !strings.Contains(csv, "X,local,100.0,0.0,0.0") {
		t.Fatalf("csv wrong:\n%s", csv)
	}
}

func TestFigure2CSV(t *testing.T) {
	rt := recorder.NewRankTracer(0)
	rt.Emit(recorder.Record{Layer: recorder.LayerPOSIX, Func: recorder.FuncOpen, TStart: 1, TEnd: 2, Path: "/chk"},
		[]int64{recorder.OCreat | recorder.OWronly, 0, 3})
	rt.Emit(recorder.Record{Layer: recorder.LayerPOSIX, Func: recorder.FuncPwrite, TStart: 3000, TEnd: 4000},
		[]int64{3, 100, 500, 100})
	rt.Emit(recorder.Record{Layer: recorder.LayerPOSIX, Func: recorder.FuncClose, TStart: 5000, TEnd: 6000},
		[]int64{3})
	tr, err := recorder.TraceOf(recorder.Meta{Ranks: 1}, []*recorder.RankTracer{rt})
	if err != nil {
		t.Fatal(err)
	}
	fas := extract(t, tr)
	csv := Figure2CSVOf(fas, "/chk")
	if !strings.Contains(csv, "3.0,0,500,100") {
		t.Fatalf("scatter row missing:\n%s", csv)
	}
	if Figure2CSVOf(fas, "/other") != "time_us,rank,offset,bytes\n" {
		t.Fatal("unknown path should give header only")
	}
}

func TestFigure3OriginLetters(t *testing.T) {
	c := &core.Census{Counts: map[string]map[recorder.Func]int{
		"App":  {recorder.FuncStat: 2},
		"HDF5": {recorder.FuncStat: 1, recorder.FuncFtruncate: 1},
	}}
	out := Figure3([]Figure3Row{{Config: "ParaDiS-HDF5", Census: c}})
	if !strings.Contains(out, "AH") {
		t.Fatalf("stat cell should read AH (app+HDF5):\n%s", out)
	}
	if !strings.Contains(out, "ftruncate") {
		t.Fatalf("ftruncate column missing:\n%s", out)
	}
}

func TestVerdictsRendering(t *testing.T) {
	out := Verdicts([]struct {
		Config  string
		Verdict core.Verdict
	}{
		{"A", core.Verdict{Weakest: 2, NeedsPerProcessOrdering: true}},
	})
	if !strings.Contains(out, "session") || !strings.Contains(out, "BurstFS") {
		t.Fatalf("verdict rendering wrong:\n%s", out)
	}
}

func TestTable5(t *testing.T) {
	out := Table5([][2]string{{"FLASH-fbs", "Sedov explosion"}})
	if !strings.Contains(out, "Sedov") {
		t.Fatal("description missing")
	}
}
