// Command bench is the repository's end-to-end benchmark: it builds the real
// semtrace and semanalyze binaries, generates each workload's input trace
// with semtrace, runs semanalyze -report over it as a closed loop (one
// client, one child process at a time, back to back), checks every
// iteration's output, and prints every end-to-end metric by name with its
// unit. A separate traced run then makes the same calls in-process through
// each module's public functions and attributes the time to layers. See
// README.md.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -seed 1 -out DIR
//	bash bench/run.sh -workload analyze-ranks -seed 3 -seconds 10 -trace 0
//	bash bench/run.sh -compare parent.json change.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr, paperWorkloads())
	stop()
	os.Exit(code)
}

// tracedIters is how many traced in-process iterations each workload gets;
// per-layer metrics are their medians.
const tracedIters = 3

// hostLabel says where the numbers were taken: wall times compare only
// between runs on one host.
type hostLabel struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"` // of every child and of the traced run
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	Date       string `json:"date"`
}

// runResults is one invocation's results.json.
type runResults struct {
	Host      hostLabel   `json:"host"`
	Seed      uint64      `json:"seed"`
	Seconds   float64     `json:"seconds"`
	BuildS    float64     `json:"build_s"`
	Workloads []*wlResult `json:"workloads"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer, all []workload) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "all", "workload to run, or all")
		seed     = fs.Uint64("seed", 1, "seed for every generated input")
		seconds  = fs.Float64("seconds", 0, "closed-loop measuring time per workload (0 = run_seconds from BENCHMARK.json)")
		traceArg = fs.Int("trace", 1, "1 = also run the traced in-process iterations, and end with the per-layer metrics; 0 = end with the end-to-end metrics")
		out      = fs.String("out", filepath.Join(".bench_build", "out"), "directory for the built binaries, scratch files, results.json and spans.json")
		cmp      = fs.Bool("compare", false, "compare two files of results.json runs, parent first, and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot(".")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	sp, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two files: parent results, then change results")
			return 2
		}
		return compare(stdout, stderr, sp, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || (*traceArg != 0 && *traceArg != 1) || *seconds < 0 {
		fs.Usage()
		return 2
	}
	var selected []workload
	for _, w := range all {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))
	if *seconds == 0 {
		dur = time.Duration(sp.RunSeconds) * time.Second
	}
	outDir, err := filepath.Abs(*out)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	b := &bench{bin: filepath.Join(outDir, "bin"), work: filepath.Join(outDir, "work"), seed: *seed,
		dur: dur, spans: newSpanLog(), progress: stderr}
	if *traceArg == 1 {
		b.traced = tracedIters
	}
	results := runResults{Host: host(root), Seed: *seed, Seconds: dur.Seconds()}
	start := time.Now()
	if err := build(ctx, root, b.bin); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	results.BuildS = time.Since(start).Seconds()
	if results.Workloads, err = b.runAll(ctx, selected); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	printResults(stdout, sp, &results, b.traced)
	if err := writeJSON(filepath.Join(outDir, "results.json"), &results); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if b.traced > 0 {
		if err := b.spans.write(filepath.Join(outDir, "spans.json")); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	line, ok := summaryLine(sp, &results, b.traced > 0)
	fmt.Fprintln(stdout, line)
	if !ok {
		return 1
	}
	return 0
}

// build compiles the two CLIs from the checkout, and the benchmark's
// calibration job, into bin.
func build(ctx context.Context, root, bin string) error {
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return err
	}
	for _, b := range []struct{ dir, pkgs string }{
		{root, "./cmd/semtrace ./cmd/semanalyze"},
		{filepath.Join(root, "bench"), "./calib"},
	} {
		cmd := exec.CommandContext(ctx, "go", append([]string{"build", "-o", bin + string(filepath.Separator)}, strings.Fields(b.pkgs)...)...)
		cmd.Dir = b.dir
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("bench: building %s: %w\n%s", b.pkgs, err, out)
		}
	}
	return nil
}

// summaryLine is the machine-readable last line. With one workload the
// metric names are the spec's; with several each is prefixed by its
// workload. ok is false when any output was wrong or any iteration failed.
func summaryLine(sp *spec, r *runResults, traced bool) (string, bool) {
	metrics := map[string]any{}
	correct, attempted, failed := true, 0, 0
	for _, w := range r.Workloads {
		correct = correct && w.Correct
		attempted += w.Attempted
		failed += w.Failed
		list, vals := sp.EndToEnd, w.EndToEnd
		if traced {
			list, vals = sp.PerLayer, w.PerLayer
		}
		for _, m := range list {
			key := m.Name
			if len(r.Workloads) > 1 {
				key = w.Name + "/" + m.Name
			}
			metrics[key] = map[string]any{"value": vals[m.Name], "unit": m.Unit}
		}
	}
	b, _ := json.Marshal(map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})
	return string(b), correct && failed == 0
}

func printResults(w io.Writer, sp *spec, r *runResults, traced int) {
	h := r.Host
	fmt.Fprintf(w, "semfs benchmark: seed %d, %.0f s closed loop per workload\n", r.Seed, r.Seconds)
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s date=%s\n", h.NProc, h.GOMAXPROCS, h.Go, h.CPU, h.Commit, h.Date)
	fmt.Fprintln(w, "wall-clock numbers compare only between runs on one host; compare paired runs with -compare")
	fmt.Fprintf(w, "%-30s %-16.6g %s\n", "build_s", r.BuildS, "s")
	for _, res := range r.Workloads {
		fmt.Fprintf(w, "\n%s: %d attempted, %d failed, %d records per iteration, correct=%v\n",
			res.Name, res.Attempted, res.Failed, res.Records, res.Correct)
		for _, p := range res.Problems {
			fmt.Fprintf(w, "  problem: %s\n", p)
		}
		for _, m := range sp.EndToEnd {
			fmt.Fprintf(w, "  %-28s %-16.6g %-10s %s is better, bound %g%%\n", m.Name, res.EndToEnd[m.Name], m.Unit, m.Better, 100*m.Bound)
		}
		fmt.Fprintf(w, "  %-28s %-16.6g %s\n", "fail_ratio", res.FailRatio, "ratio")
		fmt.Fprintf(w, "  %-28s %-16.6g times above are scaled by it; those below are as measured\n", "host_speed", res.Speed)
		fmt.Fprintf(w, "  %-28s %.4f / %.4f / %.4f s over %d samples\n", "wall_s p25/p50/p75", res.WallQ[0], res.WallQ[1], res.WallQ[2], len(res.WallS))
		if t := res.WallTail; t != nil {
			fmt.Fprintf(w, "  %-28s p%g = %.4f s, %d of %d samples beyond\n", "wall_s tail", t.Percentile, t.Value, t.Beyond, t.Samples)
		} else {
			fmt.Fprintf(w, "  %-28s none: %d samples, a percentile needs %d beyond it\n", "wall_s tail", len(res.WallS), tailMinBeyond)
		}
		if traced > 0 && res.PerLayer != nil {
			fmt.Fprintf(w, "  per layer, median of %d traced in-process iterations:\n", traced)
			for _, m := range sp.PerLayer {
				fmt.Fprintf(w, "  %-28s %-16.6g %s\n", m.Name, res.PerLayer[m.Name], m.Unit)
			}
		}
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func host(root string) hostLabel {
	return hostLabel{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: procs,
		Go:         runtime.Version(),
		CPU:        cpuModel(),
		Commit:     gitCommit(root),
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit reads HEAD from the checkout's .git directory without running
// git; a source tree that is not a repository reads "unknown".
func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return hash
			}
		}
	}
	return "unknown"
}
