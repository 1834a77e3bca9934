package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(data, n=4).
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
	} {
		if got := quartiles(c.data); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
		}
	}
	for _, c := range []struct {
		data []float64
		want float64
	}{{nil, 0}, {[]float64{7}, 7}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.data); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.data, got, c.want)
		}
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	if _, ok := tailPercentile(seq(19)); ok {
		t.Error("19 samples: want no percentile with 10 samples beyond it")
	}
	for _, c := range []struct {
		n          int
		percentile float64
		beyond     int
	}{{20, 50, 10}, {40, 75, 10}, {100, 90, 10}, {1000, 99, 10}} {
		got, ok := tailPercentile(seq(c.n))
		if !ok || got.Percentile != c.percentile || got.Beyond != c.beyond || got.Samples != c.n {
			t.Errorf("%d samples: got %+v (ok %v), want p%g with %d beyond", c.n, got, ok, c.percentile, c.beyond)
		}
	}
}

func TestFailRatio(t *testing.T) {
	for _, c := range []struct {
		failed, attempted int
		want              float64
	}{{0, 10, 0}, {3, 12, 0.25}, {5, 5, 1}, {0, 0, 1}} {
		if got := failRatio(c.failed, c.attempted); got != c.want {
			t.Errorf("failRatio(%d, %d) = %v, want %v", c.failed, c.attempted, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "cpu_s_p50", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "records_per_s", Better: "higher", Bound: 0.1}
	tight := []float64{10, 10.1, 9.9, 10.05, 9.95, 10, 10.1, 9.9, 10.02, 9.98}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{7, 13, 8, 12, 10, 6, 14, 9, 11, 10}
	for _, c := range []struct {
		name           string
		m              metricSpec
		parent, change []float64
		want           string
	}{
		{"faster", lower, tight, scale(tight, 0.8), "better"},
		{"slower", lower, tight, scale(tight, 1.2), "worse"},
		{"same", lower, tight, tight, "unchanged"},
		{"higher is better", higher, tight, scale(tight, 1.2), "better"},
		{"lower throughput", higher, tight, scale(tight, 0.8), "worse"},
		{"noisy parent", lower, wide, scale(wide, 1.05), "unresolved"},
		{"one pair", lower, tight[:1], tight[:1], "unresolved"},
	} {
		if got, _ := judge(c.m, c.parent, c.change); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestChildTimeoutCountsAsFailure(t *testing.T) {
	start := time.Now()
	c, err := runChild(context.Background(), 200*time.Millisecond, []string{"sleep", "30"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if !c.timedOut || c.code == 0 {
		t.Errorf("got timedOut=%v code=%d, want a killed child", c.timedOut, c.code)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("a timed-out child held the benchmark for %v", d)
	}
}

// toyWorkloads are the paper workloads at 8 ranks: the same code paths,
// fast enough for go test.
func toyWorkloads() []workload {
	ws := paperWorkloads()
	for i := range ws {
		ws[i].ranks, ws[i].ppn = 8, 2
		if ws[i].steps > 0 {
			ws[i].steps = 20
		}
	}
	return ws
}

func TestSmokeAllWorkloadsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLIs and runs every workload")
	}
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-seed", "1", "-seconds", "0.001", "-out", out}, &stdout, &stderr, toyWorkloads())
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	root, err := findRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	text := stdout.String()
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		line := regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(m.Name) + `\s+\S+\s+` + regexp.QuoteMeta(m.Unit) + `(\s|$)`)
		if n := len(line.FindAllString(text, -1)); n != len(sp.Workloads) {
			t.Errorf("metric %s with unit %s printed %d times, want once per workload (%d)", m.Name, m.Unit, n, len(sp.Workloads))
		}
	}

	lines := strings.Split(strings.TrimSpace(text), "\n")
	var summary struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
		t.Fatalf("last line is not the summary object: %v", err)
	}
	if !summary.Correct || summary.Failed != 0 || summary.Attempted < len(sp.Workloads) {
		t.Errorf("summary = %+v, want correct with no failures", summary)
	}
	if want := len(sp.Workloads) * len(sp.PerLayer); len(summary.Metrics) != want {
		t.Errorf("summary has %d metrics, want %d", len(summary.Metrics), want)
	}

	// Every metric the spec names must be one the program computes.
	var results runResults
	b, err := os.ReadFile(filepath.Join(out, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &results); err != nil {
		t.Fatal(err)
	}
	computed := map[string]bool{}
	for _, w := range results.Workloads {
		for k := range w.EndToEnd {
			computed[k] = true
		}
		for k := range w.PerLayer {
			computed[k] = true
		}
	}
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !computed[m.Name] {
			t.Errorf("BENCHMARK.json names %s, which no workload computes", m.Name)
		}
	}
	if _, err := os.Stat(filepath.Join(out, "spans.json")); err != nil {
		t.Error(err)
	}
}

func TestTamperedReferenceFailsEveryIteration(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLIs")
	}
	root, err := findRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	b := &bench{bin: filepath.Join(out, "bin"), work: filepath.Join(out, "work"), seed: 1, spans: newSpanLog(),
		progress: &bytes.Buffer{}}
	if err := build(context.Background(), root, b.bin); err != nil {
		t.Fatal(err)
	}
	w := toyWorkloads()[0] // analyze-ranks
	tk := &task{w: w, dir: filepath.Join(b.work, w.name), res: &wlResult{Name: w.name, Correct: true}}
	if err := b.setup(context.Background(), tk); err != nil {
		t.Fatal(err)
	}
	tk.ref.digest = strings.Repeat("0", 64)
	b.measure(context.Background(), tk)
	tk.res.summarize()
	if tk.res.FailRatio != 1 || tk.res.Correct {
		t.Errorf("fail ratio %v, correct %v; want 1 and false", tk.res.FailRatio, tk.res.Correct)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := summaryLine(sp, &runResults{Workloads: []*wlResult{tk.res}}, false); ok {
		t.Error("summary reports success; the run must exit nonzero")
	}
}
