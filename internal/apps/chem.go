package apps

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/hdf5"
	"repro/internal/payload"
	"repro/internal/recorder"
)

// nwchemConfig emulates the NWChem gas-phase dynamics run of Table 5: every
// rank keeps a private scratch file (N-N consecutive), while rank 0 writes
// the trajectory file — header first, frames appended, header rewritten at
// the end (WAW-S) and read back for the summary (RAW-S), all within one
// open session (the Table 4 signature).
func nwchemConfig() *Config {
	const trjHeader = 256
	return &Config{
		App: "NWChem", Library: "POSIX",
		Description: "3-Carboxybenzisoxazole gas-phase dynamics; per-rank AO-integral scratch files plus a rank-0 trajectory file with header rewrite",
		Setup: func(ctx *harness.Ctx, p Params) error {
			return stageInput(ctx, "/in/nwchem.nw", 800)
		},
		Run: func(ctx *harness.Ctx, p Params) error {
			if err := readInput(ctx, "/in/nwchem.nw"); err != nil {
				return err
			}
			scratch, err := ctx.OS.Open(fmt.Sprintf("/scratch/aoints.%04d", ctx.Rank),
				recorder.OCreat|recorder.OWronly|recorder.OTrunc, 0o644)
			if err != nil {
				return err
			}
			var trj int
			if ctx.Rank == 0 {
				if trj, err = ctx.OS.Open("/md.trj", recorder.OCreat|recorder.ORdwr|recorder.OTrunc, 0o644); err != nil {
					return err
				}
				if _, err := ctx.OS.Write(trj, fill("trjhdr", 0, 0, trjHeader)); err != nil {
					return err
				}
			}
			for step := 1; step <= p.Steps; step++ {
				ctx.Compute(50, 150)
				ctx.MPI.Allreduce(int64(step), mpiOpSum)
				// Scratch integrals, appended consecutively.
				if _, err := ctx.OS.Write(scratch, fill("aoints", ctx.Rank, step, p.Block)); err != nil {
					return err
				}
				// Solute coordinates to the trajectory every step (Table 5).
				frame := ctx.MPI.Gather(0, fill("frame", ctx.Rank, step, p.Block/8).Materialize())
				if ctx.Rank == 0 {
					for _, part := range frame {
						if _, err := ctx.OS.Write(trj, payload.Bytes(part)); err != nil {
							return err
						}
					}
				}
			}
			if ctx.Rank == 0 {
				// Final header rewrite with the frame count (WAW-S), then
				// read-back for the run summary (RAW-S) — same session.
				if _, err := ctx.OS.Lseek(trj, 0, recorder.SeekSet); err != nil {
					return err
				}
				if _, err := ctx.OS.Write(trj, fill("trjhdr", 0, p.Steps, trjHeader)); err != nil {
					return err
				}
				if _, err := ctx.OS.Lseek(trj, 0, recorder.SeekSet); err != nil {
					return err
				}
				got, err := ctx.OS.Read(trj, trjHeader)
				if err != nil {
					return err
				}
				if p.Verify {
					checkFill(ctx, "nwchem trajectory header", "trjhdr", 0, p.Steps, got, trjHeader)
				}
				if err := ctx.OS.Close(trj); err != nil {
					return err
				}
			}
			if err := ctx.OS.Close(scratch); err != nil {
				return err
			}
			ctx.OS.Unlink(fmt.Sprintf("/scratch/aoints.%04d", ctx.Rank))
			return ctx.Failures()
		},
	}
}

// gamessConfig emulates the GAMESS closed-shell functional test: a subset of
// group-master ranks each own a DICTNRY-style scratch file whose master
// record (record 0) is rewritten after the run (WAW-S), giving the M-M
// consecutive pattern of Table 3.
func gamessConfig() *Config {
	const record0 = 256
	return &Config{
		App: "GAMESS", Library: "POSIX",
		Description: "Closed-shell test on ethyl alcohol; one DICTNRY scratch file per group master, master record rewritten in place",
		Setup: func(ctx *harness.Ctx, p Params) error {
			return stageInput(ctx, "/in/gamess.inp", 600)
		},
		Run: func(ctx *harness.Ctx, p Params) error {
			if err := readInput(ctx, "/in/gamess.inp"); err != nil {
				return err
			}
			group := 4
			if ctx.Size < group {
				group = ctx.Size
			}
			master := ctx.Rank%group == 0
			var fd int
			if master {
				var err error
				fd, err = ctx.OS.Open(fmt.Sprintf("/gms/scr.%03d", ctx.Rank/group),
					recorder.OCreat|recorder.ORdwr|recorder.OTrunc, 0o644)
				if err != nil {
					return err
				}
				if _, err := ctx.OS.Write(fd, fill("dictnry", ctx.Rank, 0, record0)); err != nil {
					return err
				}
			}
			for step := 1; step <= p.Steps; step++ {
				ctx.MPI.Compute(1)
				if master {
					// Group members ship integral batches to the master.
					for m := 1; m < group && ctx.Rank+m < ctx.Size; m++ {
						ctx.MPI.Recv(ctx.Rank+m, 40)
					}
					if _, err := ctx.OS.Write(fd, fill("ints", ctx.Rank, step, p.Block)); err != nil {
						return err
					}
				} else {
					ctx.MPI.Send((ctx.Rank/group)*group, 40, fill("batch", ctx.Rank, step, p.Block/4).Materialize())
				}
			}
			if master {
				// Rewrite the master record in place: the WAW-S of Table 4.
				if _, err := ctx.OS.Pwrite(fd, fill("dictnry", ctx.Rank, p.Steps, record0), 0); err != nil {
					return err
				}
				if err := ctx.OS.Close(fd); err != nil {
					return err
				}
			}
			ctx.MPI.Barrier()
			return ctx.Failures()
		},
	}
}

// qmcpackConfig emulates the QMCPACK diffusion Monte Carlo run: rank 0
// writes an HDF5 checkpoint series (1-1, no conflicts).
func qmcpackConfig() *Config {
	return &Config{
		App: "QMCPACK", Library: "HDF5",
		Description: "Short DMC of a water molecule; rank 0 writes .config.h5 checkpoints every CheckpointEvery steps",
		Setup: func(ctx *harness.Ctx, p Params) error {
			return stageInput(ctx, "/in/qmcpack.xml", 2048)
		},
		Run: func(ctx *harness.Ctx, p Params) error {
			if err := readInput(ctx, "/in/qmcpack.xml"); err != nil {
				return err
			}
			ckpt := 0
			for step := 1; step <= p.Steps; step++ {
				ctx.MPI.Compute(2)
				ctx.MPI.Allreduce(int64(step), mpiOpSum) // energy estimator
				if step%p.CheckpointEvery != 0 {
					continue
				}
				walkers := ctx.MPI.Gather(0, fill("walkers", ctx.Rank, step, p.Block).Materialize())
				if ctx.Rank == 0 {
					f, err := hdf5.CreateSerial(ctx.OS, ctx.Tracer,
						fmt.Sprintf("/qmc.s%03d.config.h5", ckpt), hdf5.Options{DataBase: 32 << 10})
					if err != nil {
						return err
					}
					d, err := f.CreateDataset("walkers", int64(len(walkers))*p.Block)
					if err != nil {
						return err
					}
					for r, w := range walkers {
						if err := d.Write(int64(r)*p.Block, payload.Bytes(w)); err != nil {
							return err
						}
					}
					d.Close()
					e, err := f.CreateDataset("energies", 512)
					if err != nil {
						return err
					}
					if err := e.Write(0, fill("energy", 0, step, 512)); err != nil {
						return err
					}
					e.Close()
					if err := f.Close(); err != nil {
						return err
					}
				}
				ckpt++
			}
			return ctx.Failures()
		},
	}
}

// vaspConfig emulates VASP: every rank reads the staged wavefunction data
// (N-1 consecutive) while rank 0 writes OUTCAR/CHGCAR (1-1).
func vaspConfig() *Config {
	return &Config{
		App: "VASP", Library: "POSIX",
		Description: "Elastic properties of zinc-blende GaAs; all ranks read the wavefunction file, rank 0 writes OUTCAR and CHGCAR",
		Setup: func(ctx *harness.Ctx, p Params) error {
			if err := stageInput(ctx, "/in/INCAR", 400); err != nil {
				return err
			}
			if ctx.Rank != 0 {
				return nil
			}
			fd, err := ctx.OS.Open("/data/WAVECAR", recorder.OCreat|recorder.OWronly|recorder.OTrunc, 0o644)
			if err != nil {
				return err
			}
			for c := 0; c < ctx.Size; c++ {
				if _, err := ctx.OS.Write(fd, fill("wave", 0, c, p.Block)); err != nil {
					return err
				}
			}
			return ctx.OS.Close(fd)
		},
		Run: func(ctx *harness.Ctx, p Params) error {
			if err := readInput(ctx, "/in/INCAR"); err != nil {
				return err
			}
			// Every rank reads the whole wavefunction file consecutively.
			fd, err := ctx.OS.Open("/data/WAVECAR", recorder.ORdonly, 0)
			if err != nil {
				return err
			}
			for c := 0; c < ctx.Size; c++ {
				got, err := ctx.OS.Read(fd, p.Block)
				if err != nil {
					return err
				}
				if p.Verify {
					checkFill(ctx, "vasp wavecar", "wave", 0, c, got, p.Block)
				}
				ctx.MPI.Compute(1)
			}
			if err := ctx.OS.Close(fd); err != nil {
				return err
			}
			var out, chg int
			if ctx.Rank == 0 {
				if out, err = ctx.OS.Fopen("/OUTCAR", "w"); err != nil {
					return err
				}
			}
			for step := 1; step <= p.Steps; step++ {
				ctx.MPI.Compute(2)
				ctx.MPI.Allreduce(int64(step), mpiOpSum)
				if ctx.Rank == 0 {
					if _, err := ctx.OS.Fwrite(out, fill("outcar", 0, step, 1024), 1, 1024); err != nil {
						return err
					}
				}
			}
			if ctx.Rank == 0 {
				if err := ctx.OS.Fclose(out); err != nil {
					return err
				}
				if chg, err = ctx.OS.Open("/CHGCAR", recorder.OCreat|recorder.OWronly|recorder.OTrunc, 0o644); err != nil {
					return err
				}
				if _, err := ctx.OS.Write(chg, fill("chgcar", 0, 0, 4*p.Block)); err != nil {
					return err
				}
				if err := ctx.OS.Close(chg); err != nil {
					return err
				}
			}
			return ctx.Failures()
		},
	}
}
