package hdf5

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/payload"
	"repro/internal/posix"
	"repro/internal/recorder"
)

// OpenRead opens an existing parallel HDF5 file read-only.
func OpenRead(comm *mpi.Proc, os *posix.Proc, tracer *recorder.RankTracer, path string, opts Options) (*File, error) {
	return newFile(comm, os, tracer, path, opts, false)
}

// OpenSerialRead opens a serial HDF5 file read-only.
func OpenSerialRead(os *posix.Proc, tracer *recorder.RankTracer, path string, opts Options) (*File, error) {
	return newFile(nil, os, tracer, path, opts, false)
}

// AttachDataset declares a dataset of a reopened file (restart path):
// layouts are allocated in creation order, so a reader that attaches the
// datasets in the order the writer created them reconstructs the same
// offsets. The superblock and the dataset's object header are read from the
// file, as H5Dopen does on a real restart.
func (f *File) AttachDataset(name string, size int64) (*Dataset, error) {
	ts := f.os.Clock().Stamp()
	if _, ok := f.datasets[name]; ok {
		return nil, fmt.Errorf("hdf5: dataset %s already attached", name)
	}
	if len(f.datasets) == 0 {
		if _, err := f.metaRead(0, superblockLen); err != nil {
			return nil, err
		}
	}
	d := &Dataset{
		f:         f,
		name:      name,
		headerOff: f.metaCursor,
		indexOff:  f.metaCursor + headerLen,
		dataOff:   f.dataCursor,
		size:      size,
		flushed:   true,
	}
	f.metaCursor += headerLen + indexNodeLen
	f.dataCursor += (size + 511) &^ 511
	f.datasets[name] = d
	f.order = append(f.order, name)
	_, err := f.metaRead(d.headerOff, headerLen)
	f.emit(recorder.FuncH5Dopen, ts, f.path, name, size)
	return d, err
}

// Read reads n bytes at offset off within the dataset.
func (d *Dataset) Read(off, n int64) ([]byte, error) {
	ts := d.f.os.Clock().Stamp()
	var data payload.P
	var err error
	if d.f.opts.Collective && d.f.mpf != nil {
		data, err = d.f.mpf.ReadAtAll(d.dataOff+off, n)
	} else {
		data, err = d.f.os.Pread(d.f.fd, n, d.dataOff+off)
	}
	d.f.emit(recorder.FuncH5Dread, ts, d.f.path, d.name, off, n)
	return data.Materialize(), err
}

// ReadIndependent reads without collective participation (restart-style).
func (d *Dataset) ReadIndependent(off, n int64) ([]byte, error) {
	ts := d.f.os.Clock().Stamp()
	var data payload.P
	var err error
	if d.f.mpf != nil {
		data, err = d.f.mpf.ReadAt(d.dataOff+off, n)
	} else {
		data, err = d.f.os.Pread(d.f.fd, n, d.dataOff+off)
	}
	d.f.emit(recorder.FuncH5Dread, ts, d.f.path, d.name, off, n)
	return data.Materialize(), err
}

// DataOff exposes the dataset's raw-data file offset (for tests).
func (d *Dataset) DataOff() int64 { return d.dataOff }

// WriteAttribute writes a small attribute on the root group (metadata-only).
func (f *File) WriteAttribute(name string, n int64) error {
	ts := f.os.Clock().Stamp()
	f.rootDirty = true
	f.sbDirty = true
	f.emit(recorder.FuncH5Awrite, ts, f.path, name, n)
	return nil
}

// Datasets returns the dataset names in creation order.
func (f *File) Datasets() []string { return append([]string(nil), f.order...) }
