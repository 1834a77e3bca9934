package hdf5

import (
	"bytes"
	"testing"

	"repro/internal/harness"
	"repro/internal/payload"
	"repro/internal/recorder"
	"repro/internal/recorder/v1test"
)

func TestRestartReadsBackDatasets(t *testing.T) {
	// Write a parallel checkpoint, close it, reopen read-only and read each
	// rank's slab back via the restart path.
	run(t, 4, 2, func(ctx *harness.Ctx) error {
		names := []string{"dens", "velx"}
		f, err := Create(ctx.MPI, ctx.OS, ctx.Tracer, "/restart.h5", Options{})
		if err != nil {
			return err
		}
		for _, n := range names {
			d, err := f.CreateDataset(n, 4*256)
			if err != nil {
				return err
			}
			if err := d.Write(int64(ctx.Rank)*256, payload.Bytes(bytes.Repeat([]byte{byte('0' + ctx.Rank)}, 256))); err != nil {
				return err
			}
			d.Close()
		}
		if err := f.Close(); err != nil {
			return err
		}
		ctx.MPI.Barrier()

		r, err := OpenRead(ctx.MPI, ctx.OS, ctx.Tracer, "/restart.h5", Options{})
		if err != nil {
			return err
		}
		if got := len(r.Datasets()); got != 0 {
			ctx.Failf("fresh open should have no datasets, got %d", got)
		}
		for _, n := range names {
			d, err := r.AttachDataset(n, 4*256)
			if err != nil {
				return err
			}
			got, err := d.ReadIndependent(int64(ctx.Rank)*256, 256)
			if err != nil {
				return err
			}
			want := bytes.Repeat([]byte{byte('0' + ctx.Rank)}, 256)
			if !bytes.Equal(got, want) {
				ctx.Failf("restart read of %s mismatched: %q", n, got[:4])
			}
		}
		if got := r.Datasets(); len(got) != 2 || got[0] != "dens" {
			ctx.Failf("Datasets() = %v", got)
		}
		if _, err := r.AttachDataset("dens", 4*256); err == nil {
			ctx.Failf("duplicate attach accepted")
		}
		if err := r.Close(); err != nil {
			return err
		}
		return ctx.Failures()
	})
}

func TestSerialRestart(t *testing.T) {
	res := run(t, 1, 1, func(ctx *harness.Ctx) error {
		f, err := CreateSerial(ctx.OS, ctx.Tracer, "/s.h5", Options{})
		if err != nil {
			return err
		}
		d, err := f.CreateDataset("walkers", 1024)
		if err != nil {
			return err
		}
		data := bytes.Repeat([]byte{0xAB}, 1024)
		if off := d.DataOff(); off < 16<<10 {
			ctx.Failf("data offset %d below DataBase", off)
		}
		if err := d.Write(0, payload.Bytes(data)); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		r, err := OpenSerialRead(ctx.OS, ctx.Tracer, "/s.h5", Options{})
		if err != nil {
			return err
		}
		d2, err := r.AttachDataset("walkers", 1024)
		if err != nil {
			return err
		}
		if d2.DataOff() != d.DataOff() {
			ctx.Failf("reattached offset %d != original %d", d2.DataOff(), d.DataOff())
		}
		got, err := d2.Read(0, 1024)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			ctx.Failf("restart content mismatch")
		}
		return r.Close()
	})
	// The reopen path must have issued an fstat (driver probe).
	found := false
	for range v1test.Filter(res.Trace, func(r *recorder.Record) bool { return r.Func == recorder.FuncFstat }) {
		found = true
	}
	if !found {
		t.Fatal("open-read should fstat the file")
	}
}

func TestOpenReadMissingFile(t *testing.T) {
	run(t, 1, 1, func(ctx *harness.Ctx) error {
		if _, err := OpenSerialRead(ctx.OS, ctx.Tracer, "/nope.h5", Options{}); err == nil {
			ctx.Failf("open of missing file accepted")
		}
		return ctx.Failures()
	})
}
