package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"time"
)

// workload is one fixed input shape: semanalyze -report over the trace that
// semtrace writes for one registry app at one scale. Why each exists is
// recorded in BENCHMARK.json and bench/README.md.
type workload struct {
	name              string
	app               string
	ranks, ppn, steps int    // steps 0 = the app's default
	verdict           string // expected weakest sufficient model
}

func paperWorkloads() []workload {
	return []workload{
		{name: "analyze-ranks", app: "FLASH-fbs", ranks: 192, ppn: 8, verdict: "commit"},
		{name: "analyze-records", app: "ENZO-HDF5", ranks: 16, ppn: 8, steps: 4400, verdict: "session"},
	}
}

// Repetitions fixed by the method, not by the host.
const (
	setupRuns     = 3 // set-ups per run; setup_s is their median
	minIters      = 3 // loop iterations run even when the measuring time has passed
	minTimeout    = 60 * time.Second
	timeoutFactor = 10 // child timeout = factor x warm-up wall, at least minTimeout
)

// calibNominal is the calibration job's median wall time, in seconds, on
// the host bench/README.md reports. Each time metric is scaled to a host on
// which the job takes this long: this host's speed drifts by 10-20% from
// minute to minute, alike for every one-core program, and the scaling
// cancels that drift where no run length could.
const calibNominal = 0.40

// bench holds one invocation's settings and shared state.
type bench struct {
	bin      string // directory holding semtrace, semanalyze and calib
	work     string // scratch directory; each workload gets its own subdirectory
	seed     uint64
	dur      time.Duration // closed-loop measuring time per workload
	traced   int           // traced in-process iterations; 0 skips the traced run
	spans    *spanLog
	progress io.Writer
	calibOut []byte // the calibration job's first output; every run must repeat it
}

// calibrate runs the calibration job once and returns its wall time in
// seconds.
func (b *bench) calibrate(ctx context.Context) (float64, error) {
	outPath := filepath.Join(b.work, "calib.out")
	c, err := runChild(ctx, minTimeout, []string{filepath.Join(b.bin, "calib")}, outPath)
	if err != nil {
		return 0, err
	}
	if c.code != 0 {
		return 0, fmt.Errorf("calibration job exited %d (timed out: %v): %s", c.code, c.timedOut, c.stderr)
	}
	out, err := os.ReadFile(outPath)
	switch {
	case err != nil:
		return 0, err
	case b.calibOut == nil:
		b.calibOut = out
	case !bytes.Equal(out, b.calibOut):
		return 0, fmt.Errorf("calibration job printed %q, first %q", out, b.calibOut)
	}
	return c.wall.Seconds(), nil
}

// reference is what the first set-up produced; every later execution of the
// workload must reproduce it exactly.
type reference struct {
	digest  string // sha256 of semanalyze's stdout
	stdout  []byte
	records int // trace records one iteration consumes
	timeout time.Duration
}

// wlResult is everything measured for one workload.
type wlResult struct {
	Name      string             `json:"name"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailRatio float64            `json:"fail_ratio"`
	Records   int                `json:"records"`
	Problems  []string           `json:"problems,omitempty"`
	SetupS    []float64          `json:"setup_s_samples"`
	SetupCalS []float64          `json:"setup_calib_s_samples"` // the calibration job after each set-up
	WallS     []float64          `json:"wall_s_samples"`
	CalS      []float64          `json:"calib_s_samples"` // the calibration job after each iteration
	WallQ     [3]float64         `json:"wall_s_quartiles"`
	WallTail  *tail              `json:"wall_s_tail,omitempty"`
	Speed     float64            `json:"host_speed"` // calibNominal / median calibration time
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	cpu, rss  []float64
}

const maxProblems = 5

func (r *wlResult) problem(format string, args ...any) {
	r.Correct = false
	if len(r.Problems) < maxProblems {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// task is one workload's state across the two phases of a run.
type task struct {
	w   workload
	dir string // the workload's scratch directory
	ref *reference
	res *wlResult
}

func (t *task) input() string  { return filepath.Join(t.dir, "input") }
func (t *task) stdout() string { return filepath.Join(t.dir, "stdout") }

func (b *bench) argv(t *task) []string {
	return []string{filepath.Join(b.bin, "semanalyze"), "-trace", t.input(), "-report"}
}

func (b *bench) semtraceArgv(w workload, out string) []string {
	argv := []string{filepath.Join(b.bin, "semtrace"), "-app", w.app,
		"-ranks", strconv.Itoa(w.ranks), "-ppn", strconv.Itoa(w.ppn), "-seed", strconv.FormatUint(b.seed, 10)}
	if w.steps > 0 {
		argv = append(argv, "-steps", strconv.Itoa(w.steps))
	}
	return append(argv, "-out", out)
}

// iterate runs the workload's command once, and returns the execution and
// the digest of its stdout, which it leaves in t.stdout().
func (b *bench) iterate(ctx context.Context, t *task, timeout time.Duration, argv ...string) (child, string, error) {
	c, err := runChild(ctx, timeout, append(b.argv(t), argv...), t.stdout())
	if err != nil {
		return c, "", err
	}
	digest, err := hashFile(t.stdout())
	return c, digest, err
}

// setup generates the workload's input trace with semtrace and runs the
// warm-up iteration, setupRuns times. Each set-up is timed as a whole; the
// first one's outputs become the reference and every later one must
// reproduce them byte for byte, input trace included.
func (b *bench) setup(ctx context.Context, t *task) error {
	w := t.w
	var inputDigest string
	for i := 0; i < setupRuns; i++ {
		fmt.Fprintf(b.progress, "%s: set-up %d/%d\n", w.name, i+1, setupRuns)
		if err := resetDir(t.dir); err != nil {
			return err
		}
		start := time.Now()
		gen, err := runChild(ctx, minTimeout, b.semtraceArgv(w, t.input()), "")
		if err != nil {
			return err
		}
		if gen.code != 0 {
			return fmt.Errorf("bench: %s: generating the input trace exited %d: %s", w.name, gen.code, gen.stderr)
		}
		timeout := minTimeout
		if t.ref != nil {
			timeout = t.ref.timeout
		}
		warm, digest, err := b.iterate(ctx, t, timeout)
		if err != nil {
			return err
		}
		t.res.SetupS = append(t.res.SetupS, time.Since(start).Seconds())
		if warm.code != 0 {
			return fmt.Errorf("bench: %s: warm-up exited %d (timed out: %v): %s", w.name, warm.code, warm.timedOut, warm.stderr)
		}
		d, err := hashTree(t.input())
		if err != nil {
			return err
		}
		if inputDigest != "" && d != inputDigest {
			return fmt.Errorf("bench: %s: set-up %d generated a different input trace from the same seed", w.name, i+1)
		}
		inputDigest = d
		if t.ref == nil {
			stdout, err := os.ReadFile(t.stdout())
			if err != nil {
				return err
			}
			t.ref = &reference{digest: digest, stdout: stdout, timeout: max(timeoutFactor*warm.wall, minTimeout)}
		} else if digest != t.ref.digest {
			return fmt.Errorf("bench: %s: set-up %d warm-up output differs from set-up 1", w.name, i+1)
		}
		cal, err := b.calibrate(ctx)
		if err != nil {
			return fmt.Errorf("bench: %s: set-up %d: %w", w.name, i+1, err)
		}
		t.res.SetupCalS = append(t.res.SetupCalS, cal)
	}
	return nil
}

var (
	analyzedRecordRE = regexp.MustCompile(`^trace: .*, (\d+) records\n`)
	conflictsRE      = regexp.MustCompile(`(?m)^Conflicts under (session|commit) semantics: (\d+)$`)
)

// check validates the reference against independent sources and fills in
// the record count records_per_s divides by: the verdict and race-freedom
// the workload expects, and a serial (-workers 1) run's output. It runs
// after the loop, whose iterations all had to match the reference.
func (b *bench) check(ctx context.Context, t *task) error {
	w, ref := t.w, t.ref
	m := analyzedRecordRE.FindSubmatch(ref.stdout)
	if m == nil {
		return fmt.Errorf("no record count in semanalyze output")
	}
	ref.records, _ = strconv.Atoi(string(m[1]))
	if ref.records <= 0 {
		return fmt.Errorf("the workload has no trace records")
	}
	verdict := "\nVerdict: weakest sufficient consistency model = " + w.verdict + "\n"
	if !bytes.Contains(ref.stdout, []byte(verdict)) {
		return fmt.Errorf("verdict is not %q", w.verdict)
	}
	if !bytes.Contains(ref.stdout, []byte("all conflicting pairs are synchronized (race-free)")) {
		return fmt.Errorf("happens-before validation is not race-free")
	}
	serial, digest, err := b.iterate(ctx, t, ref.timeout, "-workers", "1")
	if err != nil {
		return err
	}
	if serial.code != 0 || digest != ref.digest {
		return fmt.Errorf("-workers 1 output differs from the warm-up's")
	}
	return nil
}

// measure is the closed loop: one client, one child at a time, back to back,
// until b.dur has passed and at least minIters iterations ran. Each
// iteration is the workload's command followed by the calibration job. An
// iteration fails on a start error, a timeout, a nonzero exit code, an
// output digest that differs from the reference or a failed calibration
// job; failed iterations contribute no timing samples.
func (b *bench) measure(ctx context.Context, t *task) {
	fmt.Fprintf(b.progress, "%s: measuring for %v\n", t.w.name, b.dur)
	ref, res := t.ref, t.res
	start := time.Now()
	for i := 0; i < minIters || time.Since(start) < b.dur; i++ {
		if ctx.Err() != nil {
			res.problem("interrupted: %v", ctx.Err())
			return
		}
		res.Attempted++
		c, digest, err := b.iterate(ctx, t, ref.timeout)
		switch {
		case err != nil:
			res.problem("iteration %d: %v", i, err)
		case c.timedOut:
			res.problem("iteration %d: timed out after %v", i, ref.timeout)
		case c.code != 0:
			res.problem("iteration %d: exit code %d: %.200s", i, c.code, c.stderr)
		case digest != ref.digest:
			res.problem("iteration %d: output digest %.12s, reference %.12s", i, digest, ref.digest)
		default:
			cal, err := b.calibrate(ctx)
			if err != nil {
				res.problem("iteration %d: %v", i, err)
				break
			}
			res.WallS = append(res.WallS, c.wall.Seconds())
			res.CalS = append(res.CalS, cal)
			res.cpu = append(res.cpu, c.cpu.Seconds())
			res.rss = append(res.rss, c.rssMB)
			continue
		}
		res.Failed++
	}
}

// runAll measures the workloads in two phases. On Linux a child's peak RSS
// (rusage Maxrss) includes the peak of the process that started it, since
// the child runs as a copy of it until exec; so phase one does nothing but
// run children (set-up and the closed loops), keeping this process small,
// and all in-process work (the traced run) waits for phase two. An error
// means a workload could not be set up at all.
func (b *bench) runAll(ctx context.Context, ws []workload) ([]*wlResult, error) {
	defer os.RemoveAll(b.work)
	tasks := make([]*task, len(ws))
	for i, w := range ws {
		tasks[i] = &task{w: w, dir: filepath.Join(b.work, w.name), res: &wlResult{Name: w.name, Correct: true}}
		if err := b.setup(ctx, tasks[i]); err != nil {
			return nil, err
		}
		b.measure(ctx, tasks[i])
	}
	results := make([]*wlResult, len(ws))
	for i, t := range tasks {
		if err := b.check(ctx, t); err != nil {
			t.res.problem("check: %v", err)
		}
		t.res.Records = t.ref.records
		t.res.summarize()
		if b.traced > 0 && t.res.Correct {
			b.traceRun(ctx, t)
		}
		results[i] = t.res
	}
	return results, nil
}

// summarize derives the end-to-end metrics from the loop's samples. Each
// time is scaled by the calibration job that ran right after it, to a host
// on which that job takes calibNominal; the quartiles and the tail stay as
// measured.
func (r *wlResult) summarize() {
	r.FailRatio = failRatio(r.Failed, r.Attempted)
	r.WallQ = quartiles(r.WallS)
	if t, ok := tailPercentile(r.WallS); ok {
		r.WallTail = &t
	}
	if m := median(r.CalS); m > 0 {
		r.Speed = calibNominal / m
	}
	wall := median(scaled(r.WallS, r.CalS))
	r.EndToEnd = map[string]float64{
		"cpu_s_p50":   median(scaled(r.cpu, r.CalS)),
		"peak_rss_mb": median(r.rss),
		"setup_s":     median(scaled(r.SetupS, r.SetupCalS)),
		"fail_ratio":  r.FailRatio,
	}
	if wall > 0 {
		r.EndToEnd["records_per_s"] = float64(r.Records) / wall
	}
	if len(r.WallS) == 0 {
		r.Correct = false
	}
}

// scaled returns each time in ts multiplied by calibNominal over the
// calibration job's time in cals at the same index.
func scaled(ts, cals []float64) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t * calibNominal / cals[i]
	}
	return out
}

func resetDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}
