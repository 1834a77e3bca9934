// Package hdf5 emulates the HDF5 library layer at the level of file-system
// behaviour: a metadata region at low file offsets (superblock, object
// headers, index nodes), raw dataset data at high offsets, deferred
// metadata flushing, and the H5Fflush semantics that the paper identifies
// as the source of FLASH's conflicts (Section 6.3).
//
// Metadata model (mirrors the observations in the paper, not the full HDF5
// format):
//
//   - The superblock occupies [0, 96). Each flush epoch updates it (HDF5
//     rewrites the end-of-file address), always by rank 0 in parallel mode —
//     repeated same-offset writes by one process: the WAW-S of Table 4.
//   - The root group object header occupies [96, 368). Every H5Dcreate
//     dirties it; at each flush epoch it is rewritten by a *varying* owner
//     rank (HDF5's independent metadata mode writes an entry from whichever
//     process's cache holds it dirty) — same-offset writes by different
//     processes across flush epochs: the WAW-D of Table 4. Because each
//     flush ends with fsync on all ranks before the next epoch's writes
//     (H5Fflush is collective), these conflicts exist under session
//     semantics but disappear under commit semantics, exactly as the paper
//     reports.
//   - Each dataset has an object header and an index node, flushed once by
//     hash-selected owner ranks; with tens of datasets per checkpoint this
//     spreads metadata writes over roughly half the ranks ("~30 of 64
//     processes" in Figure 2).
//   - With CollectiveMetadata set, rank 0 performs all metadata writes (the
//     paper's proposed one-line FLASH fix).
//   - In serial (single-process) mode, dataset headers are written through
//     at create time and read back by H5Dopen — the RAW-S pattern ENZO
//     exhibits — while shared headers are written once at close, so
//     write-once serial workloads (LAMMPS-HDF5, QMCPACK) stay conflict-free.
package hdf5

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/payload"
	"repro/internal/posix"
	"repro/internal/recorder"
)

// Layout constants (bytes). Values are representative of HDF5 1.8-era
// metadata object sizes; only their smallness relative to data matters.
const (
	superblockLen  = 96
	rootHeaderOff  = 96
	rootHeaderLen  = 272
	headerLen      = 272
	indexNodeLen   = 136
	metaCursorBase = rootHeaderOff + rootHeaderLen
)

// Options configures an emulated HDF5 file.
type Options struct {
	// Collective routes dataset writes through MPI-IO collective buffering.
	Collective bool
	// CBNodes bounds the number of MPI-IO aggregators (0 = one per node).
	CBNodes int
	// CyclicDomains selects block-cyclic collective-buffering file domains
	// of CBBlock bytes (see mpiio.Options.CyclicDomains).
	CyclicDomains bool
	// CBBlock is the collective-buffering block size (0 = mpiio default).
	CBBlock int64
	// CollectiveMetadata makes rank 0 perform all metadata I/O.
	CollectiveMetadata bool
	// DataBase is the file offset where raw dataset data starts
	// (metadata lives below it). 0 means 16 KiB.
	DataBase int64
	// VerifyMetadata makes each root-header flush a read-modify-write: the
	// owner rank reads the current header and checks it is the content the
	// previous flush epoch wrote before writing the new epoch's content.
	// On a PFS whose semantics hide the previous owner's write, the check
	// fails — this is how FLASH's cross-process metadata conflict actually
	// corrupts a file on a session-semantics PFS. Off by default because
	// the extra read changes the traced conflict signature (adds RAW where
	// the paper reports only WAW).
	VerifyMetadata bool
	// OnCorruption receives a description of each stale metadata read
	// detected by VerifyMetadata.
	OnCorruption func(msg string)
}

func (o Options) withDefaults() Options {
	if o.DataBase == 0 {
		o.DataBase = 16 << 10
	}
	return o
}

// File is an emulated HDF5 file. Parallel files are opened collectively on
// every rank; serial files belong to a single process and perform no
// communication.
type File struct {
	comm   *mpi.Proc // nil for serial files
	os     *posix.Proc
	tracer *recorder.RankTracer
	opts   Options

	path          string
	pathHash      uint64      // fnv64(path), the seed of every metadata entry
	fd            int         // posix descriptor (independent/serial modes)
	mpf           *mpiio.File // collective mode
	metaCursor    int64
	dataCursor    int64
	flushEpoch    int64
	rootFlushedAt int64 // epoch of the last root-header write, -1 if never
	rootDirty     bool
	sbDirty       bool
	datasets      map[string]*Dataset
	order         []string // dataset creation order
	closed        bool
}

// Dataset is an emulated HDF5 dataset within a file.
type Dataset struct {
	f         *File
	name      string
	headerOff int64
	indexOff  int64
	dataOff   int64
	size      int64
	dirty     bool
	flushed   bool
}

// Create creates a parallel HDF5 file collectively.
func Create(comm *mpi.Proc, os *posix.Proc, tracer *recorder.RankTracer, path string, opts Options) (*File, error) {
	f, err := newFile(comm, os, tracer, path, opts, true)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// CreateSerial creates an HDF5 file owned by this process only.
func CreateSerial(os *posix.Proc, tracer *recorder.RankTracer, path string, opts Options) (*File, error) {
	return newFile(nil, os, tracer, path, opts, true)
}

func newFile(comm *mpi.Proc, os *posix.Proc, tracer *recorder.RankTracer, path string, opts Options, create bool) (*File, error) {
	o := opts.withDefaults()
	f := &File{
		comm:          comm,
		os:            os,
		tracer:        tracer,
		opts:          o,
		path:          path,
		pathHash:      fnv64(path),
		metaCursor:    metaCursorBase,
		dataCursor:    o.DataBase,
		rootFlushedAt: -1,
		datasets:      make(map[string]*Dataset),
	}
	ts := os.Clock().Stamp()
	fn := recorder.FuncH5Fcreate
	if !create {
		fn = recorder.FuncH5Fopen
	}
	var err error
	if o.Collective {
		if comm == nil {
			return nil, fmt.Errorf("hdf5: collective mode requires a communicator")
		}
		amode := mpiio.ModeRdonly
		if create {
			amode = mpiio.ModeCreate | mpiio.ModeRdwr
		}
		f.mpf, err = mpiio.Open(comm, os, tracer, path, amode, mpiio.Options{
			CBNodes:       o.CBNodes,
			CyclicDomains: o.CyclicDomains,
			CBBufferSize:  o.CBBlock,
		})
	} else {
		flags := recorder.ORdonly
		if create {
			flags = recorder.OCreat | recorder.ORdwr
			// Existence probe + explicit truncation, as the HDF5 sec2/mpio
			// drivers do (the extra lstat/ftruncate the paper observes for
			// ParaDiS-HDF5 in Figure 3).
			os.Lstat(path)
		}
		f.fd, err = os.Open(path, flags, 0o644)
		if err == nil && create {
			os.Ftruncate(f.fd, 0)
		}
		if err == nil && !create {
			os.Fstat(f.fd)
		}
	}
	f.emit(fn, ts, path, "")
	if err != nil {
		return nil, fmt.Errorf("hdf5: open %s: %w", path, err)
	}
	if create {
		f.sbDirty = true
		if f.serial() {
			// Serial HDF5 writes the superblock eagerly... at close in our
			// model (exactly one write per entry keeps write-once serial
			// workloads conflict-free; see package comment).
		}
	}
	if comm != nil && !o.Collective {
		comm.Barrier() // file opens are collective in parallel HDF5
	}
	return f, nil
}

func (f *File) serial() bool { return f.comm == nil }

func (f *File) rank() int {
	if f.comm == nil {
		return 0
	}
	return f.comm.Rank()
}

func (f *File) size() int {
	if f.comm == nil {
		return 1
	}
	return f.comm.Size()
}

func (f *File) emit(fn recorder.Func, ts uint64, path, dset string, args ...int64) {
	f.tracer.Emit(recorder.Record{
		Layer:  recorder.LayerHDF5,
		Func:   fn,
		TStart: ts,
		TEnd:   f.os.Clock().Stamp(),
		Path:   path,
		Path2:  dset, // dataset/attribute name (library-specific operand)
	}, args)
}

// metaWrite performs one metadata write at [off, off+n) with deterministic
// content derived from the file path and offset (so any owner writes
// identical bytes, as HDF5 caches do).
func (f *File) metaWrite(off, n int64) error {
	return f.metaWriteContent(off, f.meta(off, n, -1))
}

func (f *File) metaWriteContent(off int64, data payload.P) error {
	if f.mpf != nil {
		return f.mpf.WriteAt(off, data) // metadata bypasses the aggregators
	}
	_, err := f.os.Pwrite(f.fd, data, off)
	return err
}

func (f *File) metaRead(off, n int64) (payload.P, error) {
	if f.mpf != nil {
		return f.mpf.ReadAt(off, n)
	}
	return f.os.Pread(f.fd, n, off)
}

// meta is the deterministic content of the metadata entry at [off, off+n)
// as a reference, made of the file path, the offset and, for an entry
// whose value changes at every flush (the root group header), the flush
// epoch; epoch -1 is an entry that does not change.
func (f *File) meta(off, n, epoch int64) payload.P {
	return payload.Meta(f.pathHash^uint64(off)*0x9e3779b97f4a7c15, n, epoch)
}

func fnv64(s string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 0x100000001b3
	}
	return h
}

// owner selects the rank whose metadata cache flushes an entry: rank 0 when
// collective metadata is enabled, otherwise a deterministic hash of the
// entry key and flush epoch (the cache-state-dependent writer of HDF5's
// independent metadata mode).
func (f *File) owner(key string, epoch int64) int {
	if f.opts.CollectiveMetadata || f.serial() {
		return 0
	}
	return int((fnv64(key) ^ uint64(epoch)*0x9e3779b9) % uint64(f.size()))
}

// CreateDataset creates a dataset of the given total byte size. In parallel
// mode the call is collective (all ranks must create identically).
func (f *File) CreateDataset(name string, size int64) (*Dataset, error) {
	ts := f.os.Clock().Stamp()
	if _, ok := f.datasets[name]; ok {
		return nil, fmt.Errorf("hdf5: dataset %s exists", name)
	}
	d := &Dataset{
		f:         f,
		name:      name,
		headerOff: f.metaCursor,
		indexOff:  f.metaCursor + headerLen,
		dataOff:   f.dataCursor,
		size:      size,
		dirty:     true,
	}
	f.metaCursor += headerLen + indexNodeLen
	if f.metaCursor > f.opts.DataBase {
		return nil, fmt.Errorf("hdf5: metadata region overflow in %s (raise Options.DataBase)", f.path)
	}
	f.dataCursor += (size + 511) &^ 511
	f.datasets[name] = d
	f.order = append(f.order, name)
	f.rootDirty = true // new link in the root group
	f.sbDirty = true
	var err error
	if f.serial() {
		// Write-through of the dataset's own header (read back by H5Dopen).
		err = f.metaWrite(d.headerOff, headerLen)
		d.dirty = false
		d.flushed = true
	}
	f.emit(recorder.FuncH5Dcreate, ts, f.path, name, size)
	return d, err
}

// OpenDataset opens an existing dataset, reading its object header from the
// file (the read-back that produces ENZO's RAW-S pattern).
func (f *File) OpenDataset(name string) (*Dataset, error) {
	ts := f.os.Clock().Stamp()
	d, ok := f.datasets[name]
	if !ok {
		f.emit(recorder.FuncH5Dopen, ts, f.path, name)
		return nil, fmt.Errorf("hdf5: no dataset %s", name)
	}
	_, err := f.metaRead(d.headerOff, headerLen)
	f.emit(recorder.FuncH5Dopen, ts, f.path, name)
	return d, err
}

// Write writes data at byte offset off within the dataset. Independent mode
// issues a pwrite from this rank; collective mode is a collective call
// routed through the MPI-IO aggregators.
func (d *Dataset) Write(off int64, data payload.P) error {
	ts := d.f.os.Clock().Stamp()
	if off+data.Len() > d.size {
		return fmt.Errorf("hdf5: write beyond dataset %s extent", d.name)
	}
	var err error
	if d.f.opts.Collective && d.f.mpf != nil {
		err = d.f.mpf.WriteAtAll(d.dataOff+off, data)
	} else {
		_, err = d.f.os.Pwrite(d.f.fd, data, d.dataOff+off)
	}
	d.dirty = true // chunk index update
	d.f.sbDirty = true
	d.f.emit(recorder.FuncH5Dwrite, ts, d.f.path, d.name, off, data.Len())
	return err
}

// Close closes the dataset handle (bookkeeping only; metadata flushing
// happens at file flush/close).
func (d *Dataset) Close() {
	ts := d.f.os.Clock().Stamp()
	d.f.emit(recorder.FuncH5Dclose, ts, d.f.path, d.name)
}

// flushMetadata writes every dirty metadata entry whose owner is this rank
// for the current epoch, then clears the dirty state. Returns the owners
// involved (for tests).
func (f *File) flushMetadata() error {
	epoch := f.flushEpoch
	myRank := f.rank()
	// Superblock: rank 0 updates the end-of-file address each epoch.
	if f.sbDirty && myRank == 0 {
		if err := f.metaWrite(0, superblockLen); err != nil {
			return err
		}
	}
	f.sbDirty = false
	// Root group header: epoch-varying owner. The header content encodes
	// the flush epoch (HDF5 metadata such as the end-of-file address and
	// link counts changes at every flush).
	if f.rootDirty && f.owner(f.path+"/root", epoch) == myRank {
		if f.opts.VerifyMetadata && f.rootFlushedAt >= 0 {
			got, err := f.metaRead(rootHeaderOff, rootHeaderLen)
			if err != nil {
				return err
			}
			want := f.meta(rootHeaderOff, rootHeaderLen, f.rootFlushedAt)
			if !got.Equal(want) && f.opts.OnCorruption != nil {
				f.opts.OnCorruption(fmt.Sprintf(
					"hdf5 %s: stale root header at flush epoch %d (expected epoch-%d content)",
					f.path, epoch, f.rootFlushedAt))
			}
		}
		if err := f.metaWriteContent(rootHeaderOff, f.meta(rootHeaderOff, rootHeaderLen, epoch)); err != nil {
			return err
		}
	}
	if f.rootDirty {
		f.rootFlushedAt = epoch // every rank tracks the epoch of the write
	}
	f.rootDirty = false
	// Dataset headers and index nodes: flushed once by hash-owners.
	for _, name := range f.order {
		d := f.datasets[name]
		if !d.dirty || d.flushed {
			d.dirty = false
			continue
		}
		if f.owner(f.path+"/"+name+"/hdr", epoch) == myRank {
			if err := f.metaWrite(d.headerOff, headerLen); err != nil {
				return err
			}
		}
		if f.owner(f.path+"/"+name+"/idx", epoch) == myRank {
			if err := f.metaWrite(d.indexOff, indexNodeLen); err != nil {
				return err
			}
		}
		d.dirty = false
		d.flushed = true
	}
	f.flushEpoch++
	return nil
}

// Flush implements H5Fflush: flush dirty metadata, then fsync (the commit
// operation of commit semantics). In parallel mode the call is collective
// and ends with a barrier, ordering this epoch's metadata writes and fsyncs
// before the next epoch's — the property that makes the FLASH conflicts
// disappear under commit semantics.
func (f *File) Flush() error {
	ts := f.os.Clock().Stamp()
	err := f.flushMetadata()
	if err == nil {
		if f.mpf != nil {
			err = f.mpf.Sync() // includes the collective barrier
		} else {
			err = f.os.Fsync(f.fd)
			if f.comm != nil {
				f.comm.Barrier()
			}
		}
	}
	f.emit(recorder.FuncH5Fflush, ts, f.path, "")
	return err
}

// Close implements H5Fclose: flush metadata and close the file.
func (f *File) Close() error {
	if f.closed {
		return fmt.Errorf("hdf5: double close of %s", f.path)
	}
	f.closed = true
	ts := f.os.Clock().Stamp()
	err := f.flushMetadata()
	if f.mpf != nil {
		if cerr := f.mpf.Close(); err == nil {
			err = cerr
		}
	} else {
		if cerr := f.os.Close(f.fd); err == nil {
			err = cerr
		}
		if f.comm != nil {
			f.comm.Barrier()
		}
	}
	f.emit(recorder.FuncH5Fclose, ts, f.path, "")
	return err
}
