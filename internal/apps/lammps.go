package apps

import (
	"fmt"

	"repro/internal/adios"
	"repro/internal/harness"
	"repro/internal/hdf5"
	"repro/internal/mpiio"
	"repro/internal/netcdf"
	"repro/internal/payload"
)

// lammpsConfig emulates the LAMMPS 2D LJ flow simulation of Table 5: the
// same dump of unscaled atom coordinates written through five different I/O
// backends. The backend determines the entire Table 3/Table 4 behaviour:
// POSIX and HDF5 are rank-0-only (1-1), MPI-IO is collective (M-1 strided),
// ADIOS is aggregated subfiles (M-M, WAW-S on md.idx), NetCDF is rank-0 with
// a numrecs header rewrite per dump (WAW-S).
func lammpsConfig(library string) *Config {
	cfg := &Config{
		App: "LAMMPS", Library: library,
		Description: "2D LJ flow, dump of unscaled atom coordinates every CheckpointEvery steps via " + library,
		Setup: func(ctx *harness.Ctx, p Params) error {
			return stageInput(ctx, "/in/lammps.flow", 512)
		},
	}
	cfg.Run = func(ctx *harness.Ctx, p Params) error {
		if err := readInput(ctx, "/in/lammps.flow"); err != nil {
			return err
		}
		dump, err := lammpsOpenDump(ctx, p, library)
		if err != nil {
			return err
		}
		step := 0
		for s := 1; s <= p.Steps; s++ {
			ctx.Compute(50, 150)
			ctx.MPI.Allreduce(int64(s), mpiOpSum) // thermo output reduction
			if s%p.CheckpointEvery != 0 {
				continue
			}
			if err := dump.write(ctx, p, step); err != nil {
				return err
			}
			step++
		}
		if err := dump.close(ctx); err != nil {
			return err
		}
		return ctx.Failures()
	}
	return cfg
}

// lammpsDump abstracts the per-backend dump stream.
type lammpsDump struct {
	write func(ctx *harness.Ctx, p Params, step int) error
	close func(ctx *harness.Ctx) error
}

func lammpsOpenDump(ctx *harness.Ctx, p Params, library string) (*lammpsDump, error) {
	switch library {
	case "POSIX":
		var fd int
		if ctx.Rank == 0 {
			var err error
			fd, err = ctx.OS.Fopen("/dump.atom", "a")
			if err != nil {
				return nil, err
			}
		}
		return &lammpsDump{
			write: func(ctx *harness.Ctx, p Params, step int) error {
				parts := ctx.MPI.Gather(0, fill("lmp", ctx.Rank, step, p.Block).Materialize())
				if ctx.Rank != 0 {
					return nil
				}
				for _, part := range parts {
					if _, err := ctx.OS.Fwrite(fd, payload.Bytes(part), 1, int64(len(part))); err != nil {
						return err
					}
				}
				return nil
			},
			close: func(ctx *harness.Ctx) error {
				if ctx.Rank != 0 {
					return nil
				}
				return ctx.OS.Fclose(fd)
			},
		}, nil

	case "HDF5":
		var f *hdf5.File
		if ctx.Rank == 0 {
			var err error
			f, err = hdf5.CreateSerial(ctx.OS, ctx.Tracer, "/dump.h5", hdf5.Options{DataBase: 32 << 10})
			if err != nil {
				return nil, err
			}
		}
		return &lammpsDump{
			write: func(ctx *harness.Ctx, p Params, step int) error {
				parts := ctx.MPI.Gather(0, fill("lmp", ctx.Rank, step, p.Block).Materialize())
				if ctx.Rank != 0 {
					return nil
				}
				d, err := f.CreateDataset(fmt.Sprintf("atoms_%04d", step), int64(len(parts))*p.Block)
				if err != nil {
					return err
				}
				for r, part := range parts {
					if err := d.Write(int64(r)*p.Block, payload.Bytes(part)); err != nil {
						return err
					}
				}
				d.Close()
				return nil
			},
			close: func(ctx *harness.Ctx) error {
				if ctx.Rank != 0 {
					return nil
				}
				return f.Close()
			},
		}, nil

	case "NetCDF":
		var f *netcdf.File
		var v *netcdf.Var
		if ctx.Rank == 0 {
			var err error
			f, err = netcdf.Create(ctx.OS, ctx.Tracer, "/dump.nc")
			if err != nil {
				return nil, err
			}
			if v, err = f.DefVar("coordinates", int64(ctx.Size)*p.Block); err != nil {
				return nil, err
			}
			if err := f.EndDef(); err != nil {
				return nil, err
			}
		}
		return &lammpsDump{
			write: func(ctx *harness.Ctx, p Params, step int) error {
				parts := ctx.MPI.Gather(0, fill("lmp", ctx.Rank, step, p.Block).Materialize())
				if ctx.Rank != 0 {
					return nil
				}
				rec := make([]byte, 0, int64(len(parts))*p.Block)
				for _, part := range parts {
					rec = append(rec, part...)
				}
				return f.PutRecord(v, -1, payload.Bytes(rec))
			},
			close: func(ctx *harness.Ctx) error {
				if ctx.Rank != 0 {
					return nil
				}
				return f.Close()
			},
		}, nil

	case "MPI-IO":
		f, err := mpiio.Open(ctx.MPI, ctx.OS, ctx.Tracer, "/dump.mpiio",
			mpiio.ModeCreate|mpiio.ModeWronly, mpiio.Options{})
		if err != nil {
			return nil, err
		}
		return &lammpsDump{
			write: func(ctx *harness.Ctx, p Params, step int) error {
				base := int64(step) * int64(ctx.Size) * p.Block
				return f.WriteAtAll(base+int64(ctx.Rank)*p.Block, fill("lmp", ctx.Rank, step, p.Block))
			},
			close: func(ctx *harness.Ctx) error { return f.Close() },
		}, nil

	case "ADIOS":
		w, err := adios.OpenWriter(ctx.MPI, ctx.OS, ctx.Tracer, "/dump")
		if err != nil {
			return nil, err
		}
		return &lammpsDump{
			write: func(ctx *harness.Ctx, p Params, step int) error {
				if err := w.Put("atoms", fill("lmp", ctx.Rank, step, p.Block)); err != nil {
					return err
				}
				return w.EndStep()
			},
			close: func(ctx *harness.Ctx) error { return w.Close() },
		}, nil
	}
	return nil, fmt.Errorf("apps: unknown LAMMPS backend %q", library)
}
