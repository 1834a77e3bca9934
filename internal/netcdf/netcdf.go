// Package netcdf emulates the classic NetCDF (CDF-1 style) library layer:
// a header at the start of the file holding dimensions, variable
// definitions and the record count, followed by fixed and record variable
// data. Appending a record rewrites the header's numrecs field — the
// same-process write-after-write (WAW-S) the paper attributes to
// LAMMPS-NetCDF in Table 4.
package netcdf

import (
	"fmt"

	"repro/internal/payload"
	"repro/internal/posix"
	"repro/internal/recorder"
)

// Header layout constants.
const (
	numrecsOff = 4 // offset of the 4-byte record counter within the header
	numrecsLen = 4
	headerSize = 1024 // fixed header region
)

// Var is a variable definition.
type Var struct {
	Name    string
	RecSize int64 // bytes per record
	offset  int64 // start of this variable's data region
}

// File is an emulated NetCDF file. The study's NetCDF configuration
// (LAMMPS-NetCDF) is serial: one process performs all I/O.
type File struct {
	os      *posix.Proc
	tracer  *recorder.RankTracer
	path    string
	fd      int
	defMode bool
	vars    []*Var
	numrecs int64
	recSize int64 // total bytes of one record across record variables
	closed  bool
}

// Create creates a NetCDF file in define mode.
func Create(os *posix.Proc, tracer *recorder.RankTracer, path string) (*File, error) {
	f := &File{os: os, tracer: tracer, path: path, defMode: true}
	ts := os.Clock().Stamp()
	// Existence probe and cwd resolution, as the C library performs (the
	// extra metadata operations Figure 3 attributes to NetCDF).
	os.Getcwd()
	_ = os.Access(path)
	fd, err := os.Open(path, recorder.OCreat|recorder.ORdwr|recorder.OTrunc, 0o644)
	f.fd = fd
	f.emit(recorder.FuncNCCreate, ts, path)
	if err != nil {
		return nil, fmt.Errorf("netcdf: %w", err)
	}
	return f, nil
}

func (f *File) emit(fn recorder.Func, ts uint64, path string, args ...int64) {
	f.tracer.Emit(recorder.Record{
		Layer:  recorder.LayerNetCDF,
		Func:   fn,
		TStart: ts,
		TEnd:   f.os.Clock().Stamp(),
		Path:   path,
	}, args)
}

// DefVar defines a record variable with the given bytes per record. Only
// legal in define mode.
func (f *File) DefVar(name string, recSize int64) (*Var, error) {
	if !f.defMode {
		return nil, fmt.Errorf("netcdf: DefVar outside define mode")
	}
	v := &Var{Name: name, RecSize: recSize}
	f.vars = append(f.vars, v)
	return v, nil
}

// EndDef leaves define mode, lays out the variables and writes the header.
func (f *File) EndDef() error {
	if !f.defMode {
		return fmt.Errorf("netcdf: EndDef outside define mode")
	}
	f.defMode = false
	ts := f.os.Clock().Stamp()
	off := int64(headerSize)
	f.recSize = 0
	for _, v := range f.vars {
		v.offset = off + f.recSize // interleaved record layout base
		f.recSize += v.RecSize
	}
	_, err := f.os.Pwrite(f.fd, payload.Bytes(headerBytes(f.path, headerSize)), 0)
	f.emit(recorder.FuncNCEnddef, ts, f.path)
	return err
}

// PutRecord appends one record of a variable (record index = current
// numrecs for rec < 0, or an explicit index). After the data write the
// header's numrecs field is rewritten — the WAW-S pattern.
func (f *File) PutRecord(v *Var, rec int64, data payload.P) error {
	if f.defMode {
		return fmt.Errorf("netcdf: PutRecord in define mode")
	}
	if data.Len() != v.RecSize {
		return fmt.Errorf("netcdf: record size %d != %d", data.Len(), v.RecSize)
	}
	if rec < 0 {
		rec = f.numrecs
	}
	ts := f.os.Clock().Stamp()
	off := v.offset + rec*f.recSize
	if _, err := f.os.Pwrite(f.fd, data, off); err != nil {
		return err
	}
	if rec >= f.numrecs {
		f.numrecs = rec + 1
		// Update numrecs in the header (the 1-byte-to-4-byte overwrite).
		if _, err := f.os.Pwrite(f.fd, payload.Bytes(counterBytes(f.numrecs)), numrecsOff); err != nil {
			return err
		}
	}
	f.emit(recorder.FuncNCPutVara, ts, f.path, rec, v.RecSize)
	return nil
}

// Close writes the final header state and closes the file.
func (f *File) Close() error {
	if f.closed {
		return fmt.Errorf("netcdf: double close of %s", f.path)
	}
	f.closed = true
	ts := f.os.Clock().Stamp()
	err := f.os.Close(f.fd)
	f.emit(recorder.FuncNCClose, ts, f.path)
	return err
}

func headerBytes(path string, n int64) []byte {
	b := make([]byte, n)
	h := uint64(1469598103934665603)
	for i := 0; i < len(path); i++ {
		h = (h ^ uint64(path[i])) * 1099511628211
	}
	for i := range b {
		h = h*6364136223846793005 + 1442695040888963407
		b[i] = byte(h >> 56)
	}
	return b
}

// counterBytes encodes the record counter big-endian in numrecsLen bytes.
func counterBytes(v int64) []byte {
	b := make([]byte, numrecsLen)
	for i := range b {
		b[i] = byte(v >> (8 * (numrecsLen - 1 - i)))
	}
	return b
}
