package hdf5

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

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
		case int64(rootHeaderOff):
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

// metaBytes and epochBytes are the oracle for metadata content: the
// generator loops that made every metadata byte before metadata became a
// payload reference.
func metaBytes(path string, off, n int64) []byte {
	h := fnv64(path) ^ uint64(off)*0x9e3779b97f4a7c15
	b := make([]byte, n)
	for i := range b {
		h = h*0x100000001b3 + uint64(i)
		b[i] = byte(h >> 32)
	}
	return b
}

func epochBytes(path string, off, n, epoch int64) []byte {
	b := metaBytes(path, off, n)
	for i := range b {
		b[i] ^= byte(uint64(epoch+1) * 0x9e3779b9 >> (uint(i%8) * 8))
	}
	return b
}

// metaRef is the reference a file at path writes for the entry.
func metaRef(path string, off, n, epoch int64) payload.P {
	return (&File{pathHash: fnv64(path)}).meta(off, n, epoch)
}

func TestMetaBytesDeterministic(t *testing.T) {
	a := metaRef("/f.h5", 96, 272, -1)
	if !a.Equal(metaRef("/f.h5", 96, 272, -1)) || !bytes.Equal(a.Materialize(), metaRef("/f.h5", 96, 272, -1).Materialize()) {
		t.Fatal("metadata content must be deterministic (any owner writes identical bytes)")
	}
	if a.Equal(metaRef("/f.h5", 368, 272, -1)) || a.Equal(metaRef("/g.h5", 96, 272, -1)) || a.Equal(metaRef("/f.h5", 96, 272, 0)) {
		t.Fatal("different entries should differ")
	}
}

// The metadata reference is the oracle's bytes however it is read: whole,
// copied, compared, and sliced at every bound, across paths, offsets,
// block lengths and epochs (-1 is the epoch-free entry).
func TestMetaReferenceMatchesOracle(t *testing.T) {
	if size := unsafe.Sizeof(payload.P{}); size != 24 {
		t.Fatalf("payload.P is %d bytes, want 24", size)
	}
	paths := []string{"/f.h5", "/flash/flash_hdf5_chk_0001", "", "/enzo/DD0004/data.cpu0003"}
	offs := []int64{0, rootHeaderOff, metaCursorBase, metaCursorBase + headerLen, 12345}
	lens := []int64{0, 1, 7, 8, 9, superblockLen, indexNodeLen, 271, headerLen}
	for epoch := int64(-1); epoch <= 9; epoch++ {
		for pi, path := range paths {
			for oi, off := range offs {
				for _, n := range lens {
					want := epochBytes(path, off, n, epoch)
					if epoch == -1 && !bytes.Equal(want, metaBytes(path, off, n)) {
						t.Fatal("epoch -1 is not the epoch-free entry")
					}
					p := metaRef(path, off, n, epoch)
					where := fmt.Sprintf("%q off %d len %d epoch %d", path, off, n, epoch)
					checkMetaRef(t, where, p, want)
					// Every slice bound of one full-size entry per epoch;
					// every start with two ends elsewhere.
					every := pi == 0 && oi == 1 && (n == headerLen || n == indexNodeLen)
					for lo := int64(0); lo <= n; lo++ {
						his := []int64{lo, lo + (n-lo)/2, n}
						if every {
							his = his[:0]
							for hi := lo; hi <= n; hi++ {
								his = append(his, hi)
							}
						}
						for _, hi := range his {
							s := p.Slice(lo, hi)
							if !bytes.Equal(s.Materialize(), want[lo:hi]) {
								t.Fatalf("%s: Slice(%d, %d) differs from the oracle", where, lo, hi)
							}
							if !every && hi > lo {
								checkMetaRef(t, fmt.Sprintf("%s [%d,%d)", where, lo, hi), s, want[lo:hi])
								if m := lo + (hi-lo)/2; !s.Slice(m-lo, hi-lo).Equal(payload.Bytes(want[m:hi])) {
									t.Fatalf("%s: nested Slice [%d,%d) differs", where, m, hi)
								}
							}
						}
					}
				}
			}
		}
	}
}

// checkMetaRef compares a metadata reference with its oracle bytes through
// every way of reading it.
func checkMetaRef(t *testing.T, where string, p payload.P, want []byte) {
	t.Helper()
	if p.Len() != int64(len(want)) || !bytes.Equal(p.Materialize(), want) {
		t.Fatalf("%s: Materialize differs from the oracle", where)
	}
	buf := make([]byte, len(want)+3)
	if c := p.CopyTo(buf); c != len(want) || !bytes.Equal(buf[:c], want) {
		t.Fatalf("%s: CopyTo differs from the oracle", where)
	}
	if short := buf[:len(want)/2]; p.CopyTo(short) != len(short) || !bytes.Equal(short, want[:len(short)]) {
		t.Fatalf("%s: CopyTo into a short buffer differs", where)
	}
	if !p.Equal(payload.Bytes(want)) || !payload.Bytes(want).Equal(p) {
		t.Fatalf("%s: Equal rejects the oracle", where)
	}
	if len(want) > 0 {
		flipped := append([]byte(nil), want...)
		flipped[len(flipped)-1] ^= 1
		if p.Equal(payload.Bytes(flipped)) {
			t.Fatalf("%s: Equal accepts a flipped byte", where)
		}
	}
}

// Making a metadata reference allocates nothing.
func TestMetaReferenceAllocatesNothing(t *testing.T) {
	f := &File{pathHash: fnv64("/f.h5")}
	var sink payload.P
	if n := testing.AllocsPerRun(100, func() { sink = f.meta(rootHeaderOff, rootHeaderLen, 7) }); n != 0 {
		t.Fatalf("a metadata reference makes %v allocations, want 0", n)
	}
	_ = sink
}
