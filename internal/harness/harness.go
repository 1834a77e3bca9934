// Package harness assembles and runs a simulated MPI job: it builds the
// shared file system and MPI world, gives every rank its own clock (with a
// bounded random skew), tracer, PFS client and POSIX layer, runs the
// application body on one goroutine per rank bracketed by barriers, and
// returns the aligned multi-rank trace — the same artifact the paper
// collects with Recorder on a real machine.
package harness

import (
	"fmt"
	"runtime/debug"
	"sync"

	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/posix"
	"repro/internal/recorder"
	"repro/internal/sim"
	"repro/internal/wal"
)

// Config parameterizes a run.
type Config struct {
	Ranks     int
	PPN       int             // processes per node; 0 means min(Ranks, 8)
	Seed      uint64          // simulation seed; 0 means 1
	Semantics pfs.Semantics   // consistency model of the underlying PFS
	FS        *pfs.FileSystem // optional pre-built FS (shared across runs)
	// Injector, if set, is registered on the file system before the run so
	// every client operation passes through fault injection (see pfs.hooks
	// and internal/faults).
	Injector pfs.FaultInjector
	// WAL, if set, gives every rank a host-side write-ahead log in front of
	// its pfs client (see internal/wal): writes ack at local-append cost and
	// drain in the background. Logs are closed (fully drained) after the
	// final barrier; a drain error surfaces as that rank's error.
	WAL *wal.Options
}

func (c Config) withDefaults() Config {
	if c.PPN == 0 {
		c.PPN = 8
		if c.Ranks < 8 {
			c.PPN = c.Ranks
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// skewMaxNS bounds each rank's constant clock skew: 10 µs, within the
// paper's <20 µs bound.
const skewMaxNS = 10_000

// Ctx is the per-rank execution context handed to application bodies.
//
// Bodies run SPMD: every rank must reach the same MPI calls in the same
// order, so a body must not return early between collectives. Verification
// failures (e.g. a stale read under weak semantics) should be accumulated
// with Failf and surfaced by returning Failures() at the end.
type Ctx struct {
	Rank   int
	Size   int
	MPI    *mpi.Proc
	OS     *posix.Proc
	RNG    *sim.RNG
	Tracer *recorder.RankTracer

	failures []string
}

// Compute advances this rank's clock by a random computation time drawn
// uniformly from [minUS, maxUS] microseconds (per-rank seeded). This is the
// load imbalance that desynchronizes ranks between collectives, so their
// subsequent I/O interleaves in the global request stream the way the
// paper's Figure 1 shows. Use MPI.Compute for deterministic uniform work.
func (c *Ctx) Compute(minUS, maxUS int) {
	if maxUS < minUS {
		maxUS = minUS
	}
	d := uint64(minUS) * 1000
	if span := maxUS - minUS; span > 0 {
		d += uint64(c.RNG.Intn(span*1000 + 1))
	}
	c.MPI.Clock().Advance(d)
}

// Failf records a non-fatal verification failure for this rank.
func (c *Ctx) Failf(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

// Failures returns an error summarizing recorded failures, or nil.
func (c *Ctx) Failures() error {
	if len(c.failures) == 0 {
		return nil
	}
	return fmt.Errorf("%d verification failure(s), first: %s", len(c.failures), c.failures[0])
}

// Result is what a run produces.
type Result struct {
	Trace *recorder.Trace
	FS    *pfs.FileSystem
	Errs  []error // one entry per failed rank (nil-free)
}

// Err returns the first rank error, or nil.
func (r *Result) Err() error {
	if len(r.Errs) > 0 {
		return r.Errs[0]
	}
	return nil
}

// Run executes body once per rank. Every rank first passes an alignment
// barrier (the paper's time-zero reference), runs the body, and passes a
// final barrier. The returned trace is aligned and validated.
func Run(cfg Config, meta recorder.Meta, body func(*Ctx) error) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Ranks <= 0 {
		return nil, fmt.Errorf("harness: non-positive rank count %d", cfg.Ranks)
	}
	topo := sim.NewTopology(cfg.Ranks, cfg.PPN)
	fs := cfg.FS
	if fs == nil {
		fs = pfs.New(pfs.Options{Semantics: cfg.Semantics})
	}
	if cfg.Injector != nil {
		fs.SetInjector(cfg.Injector)
	}
	world := mpi.NewWorld(topo)
	root := sim.NewRNG(cfg.Seed)

	tracers := make([]*recorder.RankTracer, cfg.Ranks)
	ctxs := make([]*Ctx, cfg.Ranks)
	// Clocks start at an epoch larger than any skew so local stamps never
	// clamp at zero (wall clocks are epoch-based; a negative stamp would
	// silently corrupt the constant-skew model that barrier alignment
	// removes).
	clockEpoch := uint64(10 * skewMaxNS)
	for r := 0; r < cfg.Ranks; r++ {
		rng := root.Split(uint64(r))
		clock := sim.NewClock(clockEpoch, rng.SkewNS(skewMaxNS))
		tracers[r] = recorder.NewRankTracer(r)
		client := fs.NewClient(r, topo.NodeOf(r))
		ctxs[r] = &Ctx{
			Rank:   r,
			Size:   cfg.Ranks,
			MPI:    mpi.NewProc(world, r, clock, tracers[r]),
			OS:     posix.NewProc(r, client, clock, tracers[r]),
			RNG:    rng,
			Tracer: tracers[r],
		}
		ctxs[r].OS.SetJitter(rng.Split(0x10b0 + uint64(r)))
	}

	logs := make([]*wal.Log, cfg.Ranks)
	if cfg.WAL != nil {
		for r := 0; r < cfg.Ranks; r++ {
			l, err := wal.Open(r, *cfg.WAL)
			if err != nil {
				for _, prev := range logs[:r] {
					prev.Close()
				}
				return nil, fmt.Errorf("harness: wal rank %d: %w", r, err)
			}
			logs[r] = l
			ctxs[r].OS.SetWAL(l)
		}
	}

	errs := make([]error, cfg.Ranks)
	var wg sync.WaitGroup
	for r := 0; r < cfg.Ranks; r++ {
		wg.Add(1)
		go func(ctx *Ctx) {
			defer wg.Done()
			completed := false
			func() {
				defer func() {
					if rec := recover(); rec != nil {
						errs[ctx.Rank] = fmt.Errorf("rank %d panicked: %v\n%s", ctx.Rank, rec, debug.Stack())
						completed = false
					}
				}()
				ctx.MPI.Barrier() // alignment barrier: trace time zero
				if err := body(ctx); err != nil {
					errs[ctx.Rank] = fmt.Errorf("rank %d: %w", ctx.Rank, err)
					return
				}
				completed = true
			}()
			// A failed rank may have bailed out mid-body with collectives
			// still ahead of it (a crash fault, an exhausted retry, a
			// panic). Detaching removes it from collective accounting so
			// surviving ranks complete their remaining rounds instead of
			// wedging; clean ranks meet at the final barrier as before.
			if completed {
				ctx.MPI.Barrier()
			} else {
				ctx.MPI.Detach()
			}
		}(ctxs[r])
	}
	wg.Wait()

	if cfg.WAL != nil {
		for r, l := range logs {
			if err := l.Close(); err != nil && errs[r] == nil {
				errs[r] = fmt.Errorf("rank %d: wal close: %w", r, err)
			}
		}
	}

	meta.Ranks = cfg.Ranks
	meta.PPN = cfg.PPN
	meta.Seed = cfg.Seed
	trace, err := recorder.NewTrace(meta, tracers)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	res := &Result{Trace: trace, FS: fs}
	for _, e := range errs {
		if e != nil {
			res.Errs = append(res.Errs, e)
		}
	}
	return res, nil
}
