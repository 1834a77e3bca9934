package netcdf

import (
	"fmt"

	"repro/internal/posix"
	"repro/internal/recorder"
)

// GetRecord reads one record of a variable.
func (f *File) GetRecord(v *Var, rec int64) ([]byte, error) {
	ts := f.os.Clock().Stamp()
	off := v.offset + rec*f.recSize
	data, err := f.os.Pread(f.fd, v.RecSize, off)
	f.emit(recorder.FuncNCGetVara, ts, f.path, rec, v.RecSize)
	return data.Materialize(), err
}

// Sync flushes the file (nc_sync → fsync).
func (f *File) Sync() error {
	ts := f.os.Clock().Stamp()
	err := f.os.Fsync(f.fd)
	f.emit(recorder.FuncNCSync, ts, f.path)
	return err
}

// NumRecs returns the current record count.
func (f *File) NumRecs() int64 { return f.numrecs }

// Open opens an existing NetCDF file and reads its header.
func Open(os *posix.Proc, tracer *recorder.RankTracer, path string) (*File, error) {
	f := &File{os: os, tracer: tracer, path: path}
	ts := os.Clock().Stamp()
	fd, err := os.Open(path, recorder.ORdonly, 0)
	f.fd = fd
	if err == nil {
		_, err = os.Pread(fd, headerSize, 0)
	}
	f.emit(recorder.FuncNCOpen, ts, path)
	if err != nil {
		return nil, fmt.Errorf("netcdf: %w", err)
	}
	return f, nil
}
