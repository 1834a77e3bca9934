package report

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/pfs"
)

func TestFigure2SVG(t *testing.T) {
	cfg, _ := apps.Lookup("FLASH-nofbs")
	res, err := apps.Execute(cfg, apps.Options{Ranks: 8, PPN: 2, Semantics: pfs.Strong})
	if err != nil || res.Err() != nil {
		t.Fatal(err, res.Err())
	}
	fas := extract(t, res.Trace)
	svg := Figure2SVGOf(fas, "/flash_hdf5_chk_0000", "FLASH nofbs checkpoint <writes>")
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>") {
		t.Fatal("not an SVG document")
	}
	if !strings.Contains(svg, "&lt;writes&gt;") {
		t.Fatal("title not escaped")
	}
	if strings.Count(svg, "<circle") < 8*3 {
		t.Fatalf("too few points: %d", strings.Count(svg, "<circle"))
	}
	if !strings.Contains(svg, "8 ranks") {
		t.Fatal("rank count missing")
	}
	// Empty panel still renders valid skeleton.
	empty := Figure2SVGOf(fas, "/no/such/file", "empty")
	if !strings.Contains(empty, "0 writes, 0 ranks") {
		t.Fatal("empty panel wrong")
	}
}

func TestRankColorsDistinctAndDeterministic(t *testing.T) {
	if rankColor(3) != rankColor(3) {
		t.Fatal("color not deterministic")
	}
	seen := map[string]bool{}
	for r := int32(0); r < 8; r++ {
		seen[rankColor(r)] = true
	}
	if len(seen) != 8 {
		t.Fatalf("only %d distinct colors for 8 ranks", len(seen))
	}
}
