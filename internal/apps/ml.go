package apps

import (
	"repro/internal/harness"
	"repro/internal/recorder"
	"repro/internal/silo"
)

// lbannConfig emulates LBANN training the CIFAR-10 autoencoder: the one
// read-intensive application of the study. Every rank reads the entire
// staged dataset from the beginning (locally consecutive), at its own pace
// (globally random, Figure 1), then trains with allreduce-only epochs.
func lbannConfig() *Config {
	const chunksPerRank = 8
	return &Config{
		App: "LBANN", Library: "POSIX",
		Description: "Autoencoder on CIFAR-10; every rank loads the whole dataset into memory, then communication-only training",
		Setup: func(ctx *harness.Ctx, p Params) error {
			if ctx.Rank != 0 {
				return nil
			}
			fd, err := ctx.OS.Open("/data/cifar10.bin", recorder.OCreat|recorder.OWronly|recorder.OTrunc, 0o644)
			if err != nil {
				return err
			}
			for c := 0; c < chunksPerRank*4; c++ {
				if _, err := ctx.OS.Write(fd, fill("cifar", 0, c, p.Block)); err != nil {
					return err
				}
			}
			return ctx.OS.Close(fd)
		},
		Run: func(ctx *harness.Ctx, p Params) error {
			if err := ctx.OS.Access("/data/cifar10.bin"); err != nil {
				return err
			}
			info, err := ctx.OS.Stat("/data/cifar10.bin")
			if err != nil {
				return err
			}
			fd, err := ctx.OS.Open("/data/cifar10.bin", recorder.ORdonly, 0)
			if err != nil {
				return err
			}
			var read int64
			chunk := 0
			for read < info.Size {
				got, err := ctx.OS.Read(fd, p.Block)
				if err != nil {
					return err
				}
				if got.Len() == 0 {
					break
				}
				if p.Verify {
					checkFill(ctx, "lbann dataset", "cifar", 0, chunk, got, p.Block)
				}
				read += got.Len()
				chunk++
				// Per-sample preprocessing desynchronizes the ranks: the
				// PFS sees an interleaved, random-looking global stream.
				ctx.Compute(30, 150)
			}
			if err := ctx.OS.Close(fd); err != nil {
				return err
			}
			// Training epochs: gradient allreduce only, no file I/O.
			for e := 0; e < p.Steps; e++ {
				ctx.MPI.Compute(2)
				ctx.MPI.Allreduce(int64(e), mpiOpSum)
			}
			return ctx.Failures()
		},
	}
}

// macsioConfig emulates MACSio in its Silo multi-file mode (Table 5:
// "simulate the I/O behaviours of ALE3D"): N ranks write M files per dump
// via baton passing (N-M strided), with the group root's same-session TOC
// rewrite (WAW-S).
func macsioConfig() *Config {
	return &Config{
		App: "MACSio", Library: "Silo",
		Description: "ALE3D-proxy multi-file dumps: one Silo file per node group, baton-passed, three variables per rank",
		Setup: func(ctx *harness.Ctx, p Params) error {
			return stageInput(ctx, "/in/macsio.json", 350)
		},
		Run: func(ctx *harness.Ctx, p Params) error {
			if err := readInput(ctx, "/in/macsio.json"); err != nil {
				return err
			}
			dump := 0
			for step := 1; step <= p.Steps; step++ {
				ctx.MPI.Compute(1)
				ctx.MPI.Barrier()
				if step%p.CheckpointEvery != 0 {
					continue
				}
				err := silo.Dump(ctx.MPI, ctx.OS, ctx.Tracer,
					sprintfDump(dump), []string{"pressure", "density", "energy"},
					silo.Options{BlockSize: p.Block})
				if err != nil {
					return err
				}
				dump++
			}
			return ctx.Failures()
		},
	}
}

func sprintfDump(i int) string {
	// "/macsio_00000" style base names; silo appends ".NNN.silo".
	digits := []byte{'0', '0', '0', '0', '0'}
	for k := len(digits) - 1; k >= 0 && i > 0; k-- {
		digits[k] = byte('0' + i%10)
		i /= 10
	}
	return "/macsio_" + string(digits)
}
