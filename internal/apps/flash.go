package apps

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/hdf5"
	"repro/internal/payload"
)

// flashDatasets are the per-checkpoint unknowns FLASH's Sedov setup writes.
var flashDatasets = []string{
	"dens", "pres", "temp", "ener", "gamc", "game",
	"velx", "vely", "velz", "gpot", "eint", "refine level",
}

// flashConfig emulates FLASH 4.4 running the 2D Sedov explosion (Table 5):
// checkpoint files and plot files through parallel HDF5, with H5Fflush
// called after each dataset — the behaviour behind the paper's only
// cross-process conflict (§6.3). With fbs (fixed block size) the HDF5 layer
// uses MPI-IO collective buffering (six aggregators, block-cyclic file
// domains, Figure 2a–c); with nofbs every rank writes independently
// (Figure 2d–f).
func flashConfig(fbs bool) *Config {
	variant := "fbs"
	desc := "2D 512x512 Sedov explosion, collective I/O (fixed block size); checkpoint every CheckpointEvery steps, H5Fflush per dataset"
	if !fbs {
		variant = "nofbs"
		desc = "2D 512x512 Sedov explosion, independent I/O (dynamic block size); checkpoint every CheckpointEvery steps, H5Fflush per dataset"
	}
	return &Config{
		App: "FLASH", Library: "HDF5", Variant: variant,
		Description: desc,
		Setup: func(ctx *harness.Ctx, p Params) error {
			return stageInput(ctx, "/in/flash.par", 1024)
		},
		Run: func(ctx *harness.Ctx, p Params) error {
			if err := readInput(ctx, "/in/flash.par"); err != nil {
				return err
			}
			ckpt := 0
			for step := 1; step <= p.Steps; step++ {
				// AMR load imbalance: ranks advance at different speeds.
				ctx.Compute(50, 200)
				ctx.MPI.Allreduce(int64(step), mpiOpMax)
				if step%p.CheckpointEvery != 0 {
					continue
				}
				if err := flashCheckpoint(ctx, p, fbs, ckpt); err != nil {
					return err
				}
				if err := flashPlot(ctx, p, fbs, ckpt); err != nil {
					return err
				}
				ckpt++
			}
			return ctx.Failures()
		},
	}
}

func flashHDF5Opts(ctx *harness.Ctx, p Params, fbs bool) hdf5.Options {
	opts := hdf5.Options{
		DataBase:       64 << 10,
		VerifyMetadata: p.Verify,
		OnCorruption:   func(msg string) { ctx.Failf("%s", msg) },
	}
	if fbs {
		opts.Collective = true
		opts.CBNodes = 6 // the six aggregator processes of Figure 2(a)
		opts.CyclicDomains = true
		opts.CBBlock = p.Block
	}
	return opts
}

// flashCheckpoint writes one checkpoint file: every dataset is created and
// written by all ranks, then flushed (H5Fflush → metadata writes + fsync).
func flashCheckpoint(ctx *harness.Ctx, p Params, fbs bool, idx int) error {
	path := fmt.Sprintf("/flash_hdf5_chk_%04d", idx)
	f, err := hdf5.Create(ctx.MPI, ctx.OS, ctx.Tracer, path, flashHDF5Opts(ctx, p, fbs))
	if err != nil {
		return err
	}
	for _, name := range flashDatasets {
		d, err := f.CreateDataset(name, int64(ctx.Size)*p.Block)
		if err != nil {
			return err
		}
		if !fbs {
			// Independent I/O: ranks arrive at their own pace.
			ctx.Compute(20, 150)
		}
		if err := d.Write(int64(ctx.Rank)*p.Block, fill("flash:"+name, ctx.Rank, idx, p.Block)); err != nil {
			return err
		}
		if err := f.Flush(); err != nil { // FLASH flushes after each dataset
			return err
		}
		d.Close()
	}
	return f.Close()
}

// flashPlot writes one plot file: a single dataset whose data comes from
// rank 0 only, while metadata writes still spread over many ranks
// (Figure 2c).
func flashPlot(ctx *harness.Ctx, p Params, fbs bool, idx int) error {
	path := fmt.Sprintf("/flash_hdf5_plt_cnt_%04d", idx)
	f, err := hdf5.Create(ctx.MPI, ctx.OS, ctx.Tracer, path, flashHDF5Opts(ctx, p, fbs))
	if err != nil {
		return err
	}
	for _, name := range []string{"dens", "temp"} {
		d, err := f.CreateDataset(name, int64(ctx.Size)*p.Block)
		if err != nil {
			return err
		}
		var data payload.P
		if ctx.Rank == 0 {
			data = fill("flashplt:"+name, 0, idx, p.Block)
		}
		if fbs {
			if err := d.Write(0, data); err != nil { // collective; only rank 0 contributes
				return err
			}
		} else if ctx.Rank == 0 {
			if err := d.Write(0, data); err != nil {
				return err
			}
		}
		if err := f.Flush(); err != nil {
			return err
		}
		d.Close()
	}
	return f.Close()
}
