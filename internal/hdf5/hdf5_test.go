package hdf5

import (
	"bytes"
	"testing"

	"repro/internal/harness"
	"repro/internal/payload"
	"repro/internal/pfs"
	"repro/internal/recorder"
	"repro/internal/recorder/v1test"
)

func run(t *testing.T, n, ppn int, body func(ctx *harness.Ctx) error) *harness.Result {
	t.Helper()
	res, err := harness.Run(harness.Config{Ranks: n, PPN: ppn, Semantics: pfs.Strong},
		recorder.Meta{App: "hdf5-test", Library: "HDF5"}, body)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	return res
}

// posixWrites returns the POSIX-layer write records of a trace.
func posixWrites(res *harness.Result) []recorder.Record {
	return v1test.Filter(res.Trace, func(r *recorder.Record) bool { return r.IsWriteOp() })
}

func TestSerialDatasetRoundTrip(t *testing.T) {
	run(t, 1, 1, func(ctx *harness.Ctx) error {
		f, err := CreateSerial(ctx.OS, ctx.Tracer, "/s.h5", Options{})
		if err != nil {
			return err
		}
		d, err := f.CreateDataset("temps", 1024)
		if err != nil {
			return err
		}
		data := bytes.Repeat([]byte{0x5A}, 1024)
		if err := d.Write(0, payload.Bytes(data)); err != nil {
			return err
		}
		got, err := d.Read(0, 1024)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			ctx.Failf("read back mismatch")
		}
		if err := f.Close(); err != nil {
			return err
		}
		return ctx.Failures()
	})
}

func TestSerialCreateWritesHeaderOpenReadsIt(t *testing.T) {
	// The ENZO RAW-S mechanism: write-through of the dataset header at
	// create, pread of the same bytes at H5Dopen, no commit in between.
	res := run(t, 1, 1, func(ctx *harness.Ctx) error {
		f, err := CreateSerial(ctx.OS, ctx.Tracer, "/e.h5", Options{})
		if err != nil {
			return err
		}
		d, err := f.CreateDataset("grid", 512)
		if err != nil {
			return err
		}
		if err := d.Write(0, payload.Bytes(make([]byte, 512))); err != nil {
			return err
		}
		if _, err := f.OpenDataset("grid"); err != nil {
			return err
		}
		return f.Close()
	})
	var wroteHeader, readHeader bool
	var hdrOff int64 = metaCursorBase
	for rank := range res.Trace.PerRank {
		for _, r := range res.Trace.Records(rank) {
			if r.Func == recorder.FuncPwrite && r.Arg(2) == hdrOff {
				wroteHeader = true
			}
			if r.Func == recorder.FuncPread && r.Arg(2) == hdrOff && wroteHeader {
				readHeader = true
			}
		}
	}
	if !wroteHeader || !readHeader {
		t.Fatalf("expected header write-then-read at offset %d (wrote=%v read=%v)", hdrOff, wroteHeader, readHeader)
	}
}

func TestSerialWriteOnceHasNoOverlappingMetadata(t *testing.T) {
	// LAMMPS-HDF5 / QMCPACK shape: serial file, datasets written once, no
	// H5Dopen — every metadata offset must be written exactly once.
	res := run(t, 1, 1, func(ctx *harness.Ctx) error {
		f, err := CreateSerial(ctx.OS, ctx.Tracer, "/q.h5", Options{})
		if err != nil {
			return err
		}
		for _, name := range []string{"a", "b", "c"} {
			d, err := f.CreateDataset(name, 256)
			if err != nil {
				return err
			}
			if err := d.Write(0, payload.Bytes(make([]byte, 256))); err != nil {
				return err
			}
			d.Close()
		}
		return f.Close()
	})
	seen := map[int64]int{}
	for _, r := range posixWrites(res) {
		seen[r.Arg(2)]++
	}
	for off, n := range seen {
		if n != 1 {
			t.Fatalf("offset %d written %d times; serial write-once file must have no overwrites", off, n)
		}
	}
}

func TestParallelIndependentWrites(t *testing.T) {
	res := run(t, 4, 2, func(ctx *harness.Ctx) error {
		f, err := Create(ctx.MPI, ctx.OS, ctx.Tracer, "/p.h5", Options{})
		if err != nil {
			return err
		}
		d, err := f.CreateDataset("field", 4*256)
		if err != nil {
			return err
		}
		data := bytes.Repeat([]byte{byte('0' + ctx.Rank)}, 256)
		if err := d.Write(int64(ctx.Rank)*256, payload.Bytes(data)); err != nil {
			return err
		}
		ctx.MPI.Barrier()
		got, err := d.Read(int64(ctx.Rank)*256, 256)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data) {
			ctx.Failf("parallel read-back mismatch: %q", got[:8])
		}
		if err := f.Close(); err != nil {
			return err
		}
		return ctx.Failures()
	})
	_ = res
}

func TestCollectiveModeUsesAggregators(t *testing.T) {
	res := run(t, 8, 2, func(ctx *harness.Ctx) error {
		f, err := Create(ctx.MPI, ctx.OS, ctx.Tracer, "/c.h5",
			Options{Collective: true, CBNodes: 2, CollectiveMetadata: true})
		if err != nil {
			return err
		}
		d, err := f.CreateDataset("rho", 8*128)
		if err != nil {
			return err
		}
		if err := d.Write(int64(ctx.Rank)*128, payload.Bytes(bytes.Repeat([]byte{1}, 128))); err != nil {
			return err
		}
		return f.Close()
	})
	// Raw data writes (offset >= DataBase) must come from <= 2 aggregators.
	dataWriters := map[int32]bool{}
	for _, r := range posixWrites(res) {
		if r.Arg(2) >= 16<<10 {
			dataWriters[r.Rank] = true
		}
	}
	if len(dataWriters) == 0 || len(dataWriters) > 2 {
		t.Fatalf("data writers = %v, want 1-2 aggregators", dataWriters)
	}
}

func TestCollectiveMetadataOnlyRank0(t *testing.T) {
	res := run(t, 4, 2, func(ctx *harness.Ctx) error {
		f, err := Create(ctx.MPI, ctx.OS, ctx.Tracer, "/cm.h5",
			Options{CollectiveMetadata: true})
		if err != nil {
			return err
		}
		d, err := f.CreateDataset("x", 4*64)
		if err != nil {
			return err
		}
		if err := d.Write(int64(ctx.Rank)*64, payload.Bytes(make([]byte, 64))); err != nil {
			return err
		}
		if err := f.Flush(); err != nil {
			return err
		}
		return f.Close()
	})
	for _, r := range posixWrites(res) {
		if r.Arg(2) < 16<<10 && r.Rank != 0 {
			t.Fatalf("rank %d wrote metadata at %d with collective metadata on", r.Rank, r.Arg(2))
		}
	}
}

func TestIndependentMetadataSpreadsAcrossRanks(t *testing.T) {
	// The FLASH shape: many datasets with per-dataset flushes spread the
	// metadata writes over many ranks.
	res := run(t, 16, 4, func(ctx *harness.Ctx) error {
		f, err := Create(ctx.MPI, ctx.OS, ctx.Tracer, "/chk.h5", Options{DataBase: 64 << 10})
		if err != nil {
			return err
		}
		for i := 0; i < 12; i++ {
			d, err := f.CreateDataset(dsname(i), 16*64)
			if err != nil {
				return err
			}
			if err := d.Write(int64(ctx.Rank)*64, payload.Bytes(make([]byte, 64))); err != nil {
				return err
			}
			if err := f.Flush(); err != nil {
				return err
			}
		}
		return f.Close()
	})
	metaWriters := map[int32]bool{}
	for _, r := range posixWrites(res) {
		if r.Arg(2) < 64<<10 {
			metaWriters[r.Rank] = true
		}
	}
	// Roughly half the ranks (the paper observed ~30/64); demand > 1/4.
	if len(metaWriters) < 4 {
		t.Fatalf("metadata writes concentrated on %d ranks: %v", len(metaWriters), metaWriters)
	}
}

func dsname(i int) string { return string(rune('a'+i%26)) + "_var" }

func TestFlushEpochsCreateCrossRankRewrites(t *testing.T) {
	// Root-header rewrites across flush epochs must come from more than one
	// rank (WAW-D feedstock) and superblock rewrites from rank 0 only
	// (WAW-S feedstock).
	res := run(t, 16, 4, func(ctx *harness.Ctx) error {
		f, err := Create(ctx.MPI, ctx.OS, ctx.Tracer, "/f.h5", Options{DataBase: 64 << 10})
		if err != nil {
			return err
		}
		for i := 0; i < 10; i++ {
			d, err := f.CreateDataset(dsname(i), 16*32)
			if err != nil {
				return err
			}
			if err := d.Write(int64(ctx.Rank)*32, payload.Bytes(make([]byte, 32))); err != nil {
				return err
			}
			if err := f.Flush(); err != nil {
				return err
			}
		}
		return f.Close()
	})
	rootWriters := map[int32]int{}
	sbWrites := 0
	for _, r := range posixWrites(res) {
		switch r.Arg(2) {
		case int64(RootHeaderOff):
			rootWriters[r.Rank]++
		case 0:
			sbWrites++
			if r.Rank != 0 {
				t.Fatalf("superblock written by rank %d", r.Rank)
			}
		}
	}
	if len(rootWriters) < 2 {
		t.Fatalf("root header written by %v; need >=2 distinct ranks for WAW-D", rootWriters)
	}
	if sbWrites < 2 {
		t.Fatalf("superblock written %d times; need repeated rank-0 writes for WAW-S", sbWrites)
	}
}

func TestHDF5LayerRecords(t *testing.T) {
	res := run(t, 2, 2, func(ctx *harness.Ctx) error {
		f, err := Create(ctx.MPI, ctx.OS, ctx.Tracer, "/r.h5", Options{})
		if err != nil {
			return err
		}
		d, err := f.CreateDataset("v", 2*32)
		if err != nil {
			return err
		}
		d.Write(int64(ctx.Rank)*32, payload.Bytes(make([]byte, 32)))
		f.WriteAttribute("time", 8)
		f.Flush()
		d.Close()
		return f.Close()
	})
	seen := map[recorder.Func]bool{}
	for _, r := range v1test.Filter(res.Trace, func(r *recorder.Record) bool { return r.Layer == recorder.LayerHDF5 }) {
		seen[r.Func] = true
	}
	for _, fn := range []recorder.Func{
		recorder.FuncH5Fcreate, recorder.FuncH5Dcreate, recorder.FuncH5Dwrite,
		recorder.FuncH5Awrite, recorder.FuncH5Fflush, recorder.FuncH5Dclose,
		recorder.FuncH5Fclose,
	} {
		if !seen[fn] {
			t.Errorf("missing HDF5 record %v", fn)
		}
	}
}

func TestMetadataRegionOverflowRejected(t *testing.T) {
	run(t, 1, 1, func(ctx *harness.Ctx) error {
		f, err := CreateSerial(ctx.OS, ctx.Tracer, "/o.h5", Options{DataBase: 1024})
		if err != nil {
			return err
		}
		if _, err := f.CreateDataset("a", 64); err != nil {
			return err
		}
		if _, err := f.CreateDataset("b", 64); err == nil {
			ctx.Failf("metadata overflow not detected")
		}
		f.Close()
		return ctx.Failures()
	})
}

func TestDoubleCloseAndDuplicateDataset(t *testing.T) {
	run(t, 1, 1, func(ctx *harness.Ctx) error {
		f, err := CreateSerial(ctx.OS, ctx.Tracer, "/d.h5", Options{})
		if err != nil {
			return err
		}
		if _, err := f.CreateDataset("x", 64); err != nil {
			return err
		}
		if _, err := f.CreateDataset("x", 64); err == nil {
			ctx.Failf("duplicate dataset accepted")
		}
		if _, err := f.OpenDataset("nope"); err == nil {
			ctx.Failf("open of missing dataset accepted")
		}
		if err := f.Close(); err != nil {
			return err
		}
		if err := f.Close(); err == nil {
			ctx.Failf("double close accepted")
		}
		return ctx.Failures()
	})
}

func TestMetaBytesDeterministic(t *testing.T) {
	a := metaBytes("/f.h5", 96, 272)
	b := metaBytes("/f.h5", 96, 272)
	if !bytes.Equal(a, b) {
		t.Fatal("metadata content must be deterministic (any owner writes identical bytes)")
	}
	c := metaBytes("/f.h5", 368, 272)
	if bytes.Equal(a, c) {
		t.Fatal("different entries should differ")
	}
}
