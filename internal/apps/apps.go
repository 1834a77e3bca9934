// Package apps provides workload emulators for the 17 HPC applications and
// benchmarks the paper traces (Table 5), in the 24 application × I/O-library
// configurations its results cover. Each emulator regenerates the I/O call
// stream the paper documents for that application — file-per-process
// checkpoints, HDF5 metadata flushes, NetCDF header rewrites, ADIOS index
// overwrites, collective two-phase writes — at a configurable, scaled-down
// size, so the analysis in internal/core reproduces Table 3, Table 4 and
// Figures 1–3 from the resulting traces.
package apps

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/payload"
	"repro/internal/pfs"
	"repro/internal/recorder"
	"repro/internal/wal"
)

// Reduction-op aliases so app bodies read like MPI code.
const (
	mpiOpSum = mpi.OpSum
	mpiOpMax = mpi.OpMax
)

// Params scales an emulated run.
type Params struct {
	// Steps is the number of simulated time steps.
	Steps int
	// CheckpointEvery controls how often checkpoint/dump phases run.
	CheckpointEvery int
	// Block is the per-rank payload in bytes per variable/dataset. It is
	// kept 512-aligned by the runner.
	Block int64
	// Verify makes applications check the bytes they read against what the
	// protocol says must be there, recording failures on the Ctx. It also
	// enables HDF5 metadata read-verification (see hdf5.Options), which
	// changes the traced conflict signature — leave it off for table/figure
	// reproduction, on for PFS-correctness experiments.
	Verify bool
}

func (p Params) withDefaults() Params {
	if p.Steps == 0 {
		p.Steps = 10
	}
	if p.CheckpointEvery == 0 {
		p.CheckpointEvery = 2
	}
	if p.Block == 0 {
		p.Block = 2048
	}
	p.Block = (p.Block + 511) &^ 511
	return p
}

// Config is one application × library configuration from the study.
type Config struct {
	App         string
	Library     string
	Variant     string
	Description string // Table 5 configuration description

	// Setup stages pre-existing data (input datasets, restart files) on the
	// file system before the traced run; it executes in a separate,
	// untraced run on the same FS.
	Setup func(ctx *harness.Ctx, p Params) error
	// Run is the traced application body.
	Run func(ctx *harness.Ctx, p Params) error
}

// Name returns the configuration's display name as used in the paper's
// tables (e.g. "FLASH-fbs", "LAMMPS-ADIOS", "GTC").
func (c *Config) Name() string {
	return recorder.Meta{App: c.App, Library: c.Library, Variant: c.Variant}.ConfigName()
}

// meta returns the trace metadata for this configuration.
func (c *Config) meta(p Params) recorder.Meta {
	return recorder.Meta{App: c.App, Library: c.Library, Variant: c.Variant, Steps: p.Steps}
}

// Options configures an emulated run.
type Options struct {
	Ranks     int
	PPN       int
	Seed      uint64
	Semantics pfs.Semantics
	// FS optionally supplies a pre-built file system (e.g. one with the
	// BurstFS UnorderedSameProcess quirk); when nil one is created with
	// the given Semantics.
	FS *pfs.FileSystem
	// Injector, if set, registers a fault injector on the file system for
	// the traced run only — the untraced Setup phase stages its data
	// fault-free, so every injected fault lands in the application's own
	// I/O protocol (see internal/faults).
	Injector pfs.FaultInjector
	// WAL, if set, fronts every rank's pfs client with a host-side
	// write-ahead log for the traced run only — Setup stages its data
	// straight through, mirroring how Injector is scoped.
	WAL    *wal.Options
	Params Params
}

// Execute stages and runs a configuration, returning the traced result.
func Execute(cfg *Config, opts Options) (*harness.Result, error) {
	p := opts.Params.withDefaults()
	hc := harness.Config{
		Ranks:     opts.Ranks,
		PPN:       opts.PPN,
		Seed:      opts.Seed,
		Semantics: opts.Semantics,
		FS:        opts.FS,
	}
	if cfg.Setup != nil {
		if hc.FS == nil {
			hc.FS = pfs.New(pfs.Options{Semantics: opts.Semantics})
		}
		setupRes, err := harness.Run(hc, recorder.Meta{App: cfg.App, Variant: "setup"},
			func(ctx *harness.Ctx) error { return cfg.Setup(ctx, p) })
		if err != nil {
			return nil, fmt.Errorf("apps: %s setup: %w", cfg.Name(), err)
		}
		if err := setupRes.Err(); err != nil {
			return nil, fmt.Errorf("apps: %s setup: %w", cfg.Name(), err)
		}
	}
	hc.Injector = opts.Injector
	hc.WAL = opts.WAL
	res, err := harness.Run(hc, cfg.meta(p), func(ctx *harness.Ctx) error {
		return cfg.Run(ctx, p)
	})
	if err != nil {
		return nil, fmt.Errorf("apps: %s: %w", cfg.Name(), err)
	}
	return res, nil
}

// Registry returns every configuration of the study, in Table 5 order.
func Registry() []*Config {
	return []*Config{
		flashConfig(true),
		flashConfig(false),
		nek5000Config(),
		qmcpackConfig(),
		vaspConfig(),
		lbannConfig(),
		lammpsConfig("ADIOS"),
		lammpsConfig("NetCDF"),
		lammpsConfig("HDF5"),
		lammpsConfig("MPI-IO"),
		lammpsConfig("POSIX"),
		enzoConfig(),
		nwchemConfig(),
		paradisConfig("HDF5"),
		paradisConfig("POSIX"),
		chomboConfig(),
		gtcConfig(),
		gamessConfig(),
		milcConfig(false),
		milcConfig(true),
		macsioConfig(),
		pf3dConfig(),
		haccConfig("MPI-IO"),
		haccConfig("POSIX"),
		vpicConfig(),
	}
}

// Lookup finds a configuration by display name.
func Lookup(name string) (*Config, bool) {
	for _, c := range Registry() {
		if c.Name() == name {
			return c, true
		}
	}
	return nil, false
}

// Names lists every configuration name in registry order.
func Names() []string {
	regs := Registry()
	out := make([]string, len(regs))
	for i, c := range regs {
		out[i] = c.Name()
	}
	return out
}

// fillSeed derives the generator state for (tag, rank, step).
func fillSeed(tag string, rank, step int) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(tag); i++ {
		h = (h ^ uint64(tag[i])) * 1099511628211
	}
	return h ^ (uint64(rank)*0x9e3779b97f4a7c15 + uint64(step)*0xbf58476d1ce4e5b9)
}

// fill is the deterministic payload for (tag, rank, step): any reader that
// knows the protocol can verify what it reads. It is a reference, so no
// byte of it exists until a read, a check or an MPI message needs it.
func fill(tag string, rank, step int, n int64) payload.P {
	return payload.Fill(fillSeed(tag, rank, step), n)
}

// checkFill verifies data against the fill pattern, recording a failure.
// A read that returned the pattern's own reference passes without a byte
// made.
func checkFill(ctx *harness.Ctx, where, tag string, rank, step int, got payload.P, want int64) {
	if got.Len() != want {
		ctx.Failf("%s: short read %d/%d bytes", where, got.Len(), want)
		return
	}
	exp := fill(tag, rank, step, want)
	if exp.Equal(got) {
		return
	}
	// Only a failed check makes the bytes, to name the first bad one.
	b, g := exp.Materialize(), got.Materialize()
	for i := range g {
		if g[i] != b[i] {
			ctx.Failf("%s: stale/corrupt byte at %d (rank %d step %d)", where, i, rank, step)
			return
		}
	}
}

// readInput emulates the 1-1 configuration-input read every application
// performs at startup: rank 0 probes and reads the input deck, broadcasts
// it. Setup must have staged the file.
func readInput(ctx *harness.Ctx, path string) error {
	var buf []byte
	if ctx.Rank == 0 {
		if err := ctx.OS.Access(path); err != nil {
			return err
		}
		if _, err := ctx.OS.Stat(path); err != nil {
			return err
		}
		fd, err := ctx.OS.Open(path, recorder.ORdonly, 0)
		if err != nil {
			return err
		}
		data, err := ctx.OS.Read(fd, 4096)
		if err != nil {
			return err
		}
		buf = data.Materialize()
		if err := ctx.OS.Close(fd); err != nil {
			return err
		}
	}
	ctx.MPI.Bcast(0, buf)
	return nil
}

// stageInput writes a small configuration file (used from Setup bodies).
func stageInput(ctx *harness.Ctx, path string, n int64) error {
	if ctx.Rank != 0 {
		return nil
	}
	fd, err := ctx.OS.Open(path, recorder.OCreat|recorder.OWronly|recorder.OTrunc, 0o644)
	if err != nil {
		return err
	}
	if _, err := ctx.OS.Write(fd, fill("input:"+path, 0, 0, n)); err != nil {
		return err
	}
	return ctx.OS.Close(fd)
}
