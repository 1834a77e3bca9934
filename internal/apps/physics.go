package apps

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/hdf5"
	"repro/internal/mpiio"
	"repro/internal/payload"
	"repro/internal/recorder"
)

// enzoConfig emulates the ENZO non-cosmological collapse test: every rank
// writes its own HDF5 file per data dump (N-N consecutive), and the
// hierarchy pass reopens datasets it just created — the header read-back
// behind ENZO's RAW-S in Table 4.
func enzoConfig() *Config {
	return &Config{
		App: "ENZO", Library: "HDF5",
		Description: "Non-cosmological collapse test; file-per-process HDF5 dumps with dataset read-back during the hierarchy pass",
		Setup: func(ctx *harness.Ctx, p Params) error {
			return stageInput(ctx, "/in/CollapseTest.enzo", 1500)
		},
		Run: func(ctx *harness.Ctx, p Params) error {
			if err := readInput(ctx, "/in/CollapseTest.enzo"); err != nil {
				return err
			}
			dump := 0
			for step := 1; step <= p.Steps; step++ {
				ctx.Compute(50, 150)
				ctx.MPI.Allreduce(int64(step), mpiOpMax)
				if step%p.CheckpointEvery != 0 {
					continue
				}
				path := fmt.Sprintf("/enzo_data%04d.cpu%04d", dump, ctx.Rank)
				f, err := hdf5.CreateSerial(ctx.OS, ctx.Tracer, path, hdf5.Options{DataBase: 32 << 10})
				if err != nil {
					return err
				}
				for _, name := range []string{"GridDensity", "GridVelocity", "GridEnergy"} {
					d, err := f.CreateDataset(name, p.Block)
					if err != nil {
						return err
					}
					if err := d.Write(0, fill("enzo:"+name, ctx.Rank, dump, p.Block)); err != nil {
						return err
					}
					d.Close()
				}
				// Hierarchy pass: reopen the grid datasets (pread of the
				// headers this process wrote above — RAW-S, no commit
				// between).
				for _, name := range []string{"GridDensity", "GridVelocity"} {
					if _, err := f.OpenDataset(name); err != nil {
						return err
					}
				}
				if err := f.Close(); err != nil {
					return err
				}
				dump++
			}
			return ctx.Failures()
		},
	}
}

// paradisConfig emulates the ParaDiS dislocation dynamics run: all ranks
// write disjoint strided segments of a shared restart file series (N-1
// strided) through either HDF5 or plain POSIX. No conflicts either way;
// the HDF5 variant exercises the extra metadata calls of Figure 3.
func paradisConfig(library string) *Config {
	return &Config{
		App: "ParaDiS", Library: library,
		Description: "FMM dislocation dynamics in copper; shared restart file series, per-rank strided segments via " + library,
		Setup: func(ctx *harness.Ctx, p Params) error {
			return stageInput(ctx, "/in/paradis.ctrl", 700)
		},
		Run: func(ctx *harness.Ctx, p Params) error {
			if err := readInput(ctx, "/in/paradis.ctrl"); err != nil {
				return err
			}
			frame := 0
			for step := 1; step <= p.Steps; step++ {
				ctx.Compute(50, 150)
				ctx.MPI.Allreduce(int64(step), mpiOpSum)
				if step%p.CheckpointEvery != 0 {
					continue
				}
				if library == "HDF5" {
					f, err := hdf5.Create(ctx.MPI, ctx.OS, ctx.Tracer,
						fmt.Sprintf("/paradis_rs%04d.h5", frame), hdf5.Options{DataBase: 32 << 10})
					if err != nil {
						return err
					}
					for _, name := range []string{"nodes", "arms"} {
						d, err := f.CreateDataset(name, int64(ctx.Size)*p.Block)
						if err != nil {
							return err
						}
						if err := d.Write(int64(ctx.Rank)*p.Block, fill("paradis:"+name, ctx.Rank, frame, p.Block)); err != nil {
							return err
						}
						d.Close()
					}
					if err := f.Close(); err != nil {
						return err
					}
				} else {
					fd, err := ctx.OS.Open(fmt.Sprintf("/paradis_rs%04d.data", frame),
						recorder.OCreat|recorder.OWronly, 0o644)
					if err != nil {
						return err
					}
					for seg := 0; seg < 2; seg++ {
						off := int64(seg)*int64(ctx.Size)*p.Block + int64(ctx.Rank)*p.Block
						if _, err := ctx.OS.Pwrite(fd, fill("paradis", ctx.Rank, frame*2+seg, p.Block), off); err != nil {
							return err
						}
					}
					if err := ctx.OS.Close(fd); err != nil {
						return err
					}
				}
				frame++
			}
			return ctx.Failures()
		},
	}
}

// chomboConfig emulates the Chombo AMR Poisson solve: one shared HDF5 plot
// file, every rank writing its boxes independently at strided offsets (N-1
// strided, conflict-free).
func chomboConfig() *Config {
	return &Config{
		App: "Chombo", Library: "HDF5",
		Description: "3D variable-coefficient AMR Poisson solve; shared HDF5 plot file, per-rank strided box writes",
		Setup: func(ctx *harness.Ctx, p Params) error {
			return stageInput(ctx, "/in/chombo.inputs", 500)
		},
		Run: func(ctx *harness.Ctx, p Params) error {
			if err := readInput(ctx, "/in/chombo.inputs"); err != nil {
				return err
			}
			for step := 1; step <= p.Steps; step++ {
				ctx.MPI.Compute(1)
				ctx.MPI.Allreduce(int64(step), mpiOpSum) // residual norm
			}
			f, err := hdf5.Create(ctx.MPI, ctx.OS, ctx.Tracer, "/chombo_plot.3d.hdf5",
				hdf5.Options{DataBase: 32 << 10})
			if err != nil {
				return err
			}
			for _, name := range []string{"phi", "rhs", "coeff"} {
				d, err := f.CreateDataset(name, int64(ctx.Size)*p.Block)
				if err != nil {
					return err
				}
				if err := d.Write(int64(ctx.Rank)*p.Block, fill("chombo:"+name, ctx.Rank, 0, p.Block)); err != nil {
					return err
				}
				d.Close()
			}
			if err := f.Close(); err != nil {
				return err
			}
			return ctx.Failures()
		},
	}
}

// vpicConfig emulates the VPIC-IO kernel: one shared HDF5 particle file,
// eight variables written collectively with block-cyclic file domains (M-1
// strided cyclic).
func vpicConfig() *Config {
	vars := []string{"x", "y", "z", "ux", "uy", "uz", "q", "id"}
	return &Config{
		App: "VPIC-IO", Library: "HDF5",
		Description: "1D particle array, eight variables per particle, collective HDF5 writes through six aggregators",
		Run: func(ctx *harness.Ctx, p Params) error {
			f, err := hdf5.Create(ctx.MPI, ctx.OS, ctx.Tracer, "/vpic_particles.h5", hdf5.Options{
				Collective:    true,
				CBNodes:       6,
				CyclicDomains: true,
				CBBlock:       p.Block,
				DataBase:      32 << 10,
			})
			if err != nil {
				return err
			}
			for _, name := range vars {
				d, err := f.CreateDataset(name, int64(ctx.Size)*p.Block)
				if err != nil {
					return err
				}
				if err := d.Write(int64(ctx.Rank)*p.Block, fill("vpic:"+name, ctx.Rank, 0, p.Block)); err != nil {
					return err
				}
				d.Close()
			}
			if err := f.Close(); err != nil {
				return err
			}
			return ctx.Failures()
		},
	}
}

// haccConfig emulates the HACC-IO kernel: file-per-process particle
// checkpoints (N-N consecutive), written through POSIX or MPI-IO, then read
// back after a close/reopen (restart) — conflict-free because the session
// boundary orders the accesses.
func haccConfig(library string) *Config {
	const nvars = 9 // xx yy zz vx vy vz phi pid mask
	return &Config{
		App: "HACC-IO", Library: library,
		Description: "HACC particle checkpoint/restart, file per process, nine variables via " + library,
		Run: func(ctx *harness.Ctx, p Params) error {
			path := fmt.Sprintf("/hacc/part.%04d", ctx.Rank)
			if library == "MPI-IO" {
				f, err := mpiio.Open(ctx.MPI, ctx.OS, ctx.Tracer, path,
					mpiio.ModeCreate|mpiio.ModeWronly, mpiio.Options{})
				if err != nil {
					return err
				}
				for v := 0; v < nvars; v++ {
					if err := f.Write(fill("hacc", ctx.Rank, v, p.Block)); err != nil {
						return err
					}
				}
				if err := f.Close(); err != nil {
					return err
				}
				r, err := mpiio.Open(ctx.MPI, ctx.OS, ctx.Tracer, path, mpiio.ModeRdonly, mpiio.Options{})
				if err != nil {
					return err
				}
				for v := 0; v < nvars; v++ {
					got, err := r.Read(p.Block)
					if err != nil {
						return err
					}
					if p.Verify {
						checkFill(ctx, "hacc restart", "hacc", ctx.Rank, v, got, p.Block)
					}
				}
				if err := r.Close(); err != nil {
					return err
				}
			} else {
				fd, err := ctx.OS.Open(path, recorder.OCreat|recorder.OWronly|recorder.OTrunc, 0o644)
				if err != nil {
					return err
				}
				for v := 0; v < nvars; v++ {
					if _, err := ctx.OS.Write(fd, fill("hacc", ctx.Rank, v, p.Block)); err != nil {
						return err
					}
				}
				if err := ctx.OS.Close(fd); err != nil {
					return err
				}
				ctx.MPI.Barrier()
				rd, err := ctx.OS.Open(path, recorder.ORdonly, 0)
				if err != nil {
					return err
				}
				for v := 0; v < nvars; v++ {
					got, err := ctx.OS.Read(rd, p.Block)
					if err != nil {
						return err
					}
					if p.Verify {
						checkFill(ctx, "hacc restart", "hacc", ctx.Rank, v, got, p.Block)
					}
				}
				if err := ctx.OS.Close(rd); err != nil {
					return err
				}
			}
			return ctx.Failures()
		},
	}
}

// pf3dConfig emulates one pF3D checkpoint step: every rank writes its own
// checkpoint file consecutively and immediately reads back the leading
// section to validate it — same process, same open session (RAW-S).
func pf3dConfig() *Config {
	const chunks = 8
	return &Config{
		App: "pF3D-IO", Library: "POSIX",
		Description: "One pF3D checkpoint step per rank (scaled), with in-session read-back validation of the leading chunk",
		Run: func(ctx *harness.Ctx, p Params) error {
			path := fmt.Sprintf("/pf3d/ckpt.%04d", ctx.Rank)
			fd, err := ctx.OS.Open(path, recorder.OCreat|recorder.ORdwr|recorder.OTrunc, 0o644)
			if err != nil {
				return err
			}
			for c := 0; c < chunks; c++ {
				if _, err := ctx.OS.Write(fd, fill("pf3d", ctx.Rank, c, p.Block)); err != nil {
					return err
				}
			}
			if _, err := ctx.OS.Lseek(fd, 0, recorder.SeekSet); err != nil {
				return err
			}
			got, err := ctx.OS.Read(fd, p.Block) // RAW-S
			if err != nil {
				return err
			}
			if p.Verify {
				checkFill(ctx, "pf3d readback", "pf3d", ctx.Rank, 0, got, p.Block)
			}
			if err := ctx.OS.Close(fd); err != nil {
				return err
			}
			return ctx.Failures()
		},
	}
}

// milcConfig emulates MILC-QCD lattice checkpointing: with save_serial a
// single rank gathers and writes (1-1 consecutive); with save_parallel all
// ranks write their sublattices at strided offsets (N-1 strided).
func milcConfig(parallel bool) *Config {
	variant := "serial"
	desc := "Lattice QCD checkpoints with save_serial: rank 0 gathers and writes the lattice"
	if parallel {
		variant = "parallel"
		desc = "Lattice QCD checkpoints with save_parallel: every rank writes its sublattice at strided offsets"
	}
	return &Config{
		App: "MILC-QCD", Library: "POSIX", Variant: variant,
		Description: desc,
		Setup: func(ctx *harness.Ctx, p Params) error {
			return stageInput(ctx, "/in/milc.in", 400)
		},
		Run: func(ctx *harness.Ctx, p Params) error {
			if err := readInput(ctx, "/in/milc.in"); err != nil {
				return err
			}
			ckpt := 0
			for step := 1; step <= p.Steps; step++ {
				ctx.MPI.Compute(2)
				ctx.MPI.Allreduce(int64(step), mpiOpSum) // plaquette
				if step%p.CheckpointEvery != 0 {
					continue
				}
				path := fmt.Sprintf("/lat.chk.%02d", ckpt)
				if parallel {
					fd, err := ctx.OS.Open(path, recorder.OCreat|recorder.OWronly, 0o644)
					if err != nil {
						return err
					}
					for seg := 0; seg < 2; seg++ {
						off := int64(seg)*int64(ctx.Size)*p.Block + int64(ctx.Rank)*p.Block
						if _, err := ctx.OS.Pwrite(fd, fill("milc", ctx.Rank, ckpt*2+seg, p.Block), off); err != nil {
							return err
						}
					}
					if err := ctx.OS.Close(fd); err != nil {
						return err
					}
				} else {
					lat := ctx.MPI.Gather(0, fill("milc", ctx.Rank, ckpt, p.Block).Materialize())
					if ctx.Rank == 0 {
						fd, err := ctx.OS.Open(path, recorder.OCreat|recorder.OWronly|recorder.OTrunc, 0o644)
						if err != nil {
							return err
						}
						for _, part := range lat {
							if _, err := ctx.OS.Write(fd, payload.Bytes(part)); err != nil {
								return err
							}
						}
						if err := ctx.OS.Close(fd); err != nil {
							return err
						}
					}
				}
				ckpt++
			}
			return ctx.Failures()
		},
	}
}

// gtcConfig emulates the gyrokinetic toroidal code: rank 0 appends to the
// history file every step and writes restart files (1-1 consecutive).
func gtcConfig() *Config {
	return &Config{
		App: "GTC", Library: "POSIX",
		Description: "Built-in gtc.64p example; rank 0 appends diagnostics to history.out and writes restart files",
		Setup: func(ctx *harness.Ctx, p Params) error {
			return stageInput(ctx, "/in/gtc.input", 300)
		},
		Run: func(ctx *harness.Ctx, p Params) error {
			if err := readInput(ctx, "/in/gtc.input"); err != nil {
				return err
			}
			var hist int
			var err error
			if ctx.Rank == 0 {
				if hist, err = ctx.OS.Fopen("/history.out", "a"); err != nil {
					return err
				}
			}
			ckpt := 0
			for step := 1; step <= p.Steps; step++ {
				ctx.MPI.Compute(1)
				diag := ctx.MPI.Reduce(0, int64(step), mpiOpSum)
				if ctx.Rank == 0 {
					_ = diag
					if _, err := ctx.OS.Fwrite(hist, fill("gtc-hist", 0, step, 256), 1, 256); err != nil {
						return err
					}
				}
				if step%p.CheckpointEvery != 0 {
					continue
				}
				part := ctx.MPI.Gather(0, fill("gtc", ctx.Rank, ckpt, p.Block).Materialize())
				if ctx.Rank == 0 {
					fd, err := ctx.OS.Open(fmt.Sprintf("/restart_dir%03d.d", ckpt),
						recorder.OCreat|recorder.OWronly|recorder.OTrunc, 0o644)
					if err != nil {
						return err
					}
					for _, pt := range part {
						if _, err := ctx.OS.Write(fd, payload.Bytes(pt)); err != nil {
							return err
						}
					}
					if err := ctx.OS.Close(fd); err != nil {
						return err
					}
				}
				ckpt++
			}
			if ctx.Rank == 0 {
				if err := ctx.OS.Fclose(hist); err != nil {
					return err
				}
			}
			return ctx.Failures()
		},
	}
}

// nek5000Config emulates the Nek5000 eddy benchmark: rank 0 gathers the
// solution fields and writes checkpoint files (1-1 consecutive).
func nek5000Config() *Config {
	return &Config{
		App: "Nek5000", Library: "POSIX",
		Description: "Eddy solutions in a doubly-periodic domain; rank 0 writes eddy0.f%05d checkpoints",
		Setup: func(ctx *harness.Ctx, p Params) error {
			return stageInput(ctx, "/in/eddy.rea", 900)
		},
		Run: func(ctx *harness.Ctx, p Params) error {
			if err := readInput(ctx, "/in/eddy.rea"); err != nil {
				return err
			}
			ckpt := 0
			for step := 1; step <= p.Steps; step++ {
				ctx.MPI.Compute(1)
				ctx.MPI.Allreduce(int64(step), mpiOpMax) // error monitor
				if step%p.CheckpointEvery != 0 {
					continue
				}
				fields := ctx.MPI.Gather(0, fill("nek", ctx.Rank, ckpt, p.Block).Materialize())
				if ctx.Rank == 0 {
					fd, err := ctx.OS.Open(fmt.Sprintf("/eddy0.f%05d", ckpt),
						recorder.OCreat|recorder.OWronly|recorder.OTrunc, 0o644)
					if err != nil {
						return err
					}
					if _, err := ctx.OS.Write(fd, fill("nekhdr", 0, ckpt, 132)); err != nil {
						return err
					}
					for _, fpart := range fields {
						if _, err := ctx.OS.Write(fd, payload.Bytes(fpart)); err != nil {
							return err
						}
					}
					if err := ctx.OS.Close(fd); err != nil {
						return err
					}
				}
				ckpt++
			}
			return ctx.Failures()
		},
	}
}
