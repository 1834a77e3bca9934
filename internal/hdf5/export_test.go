package hdf5

import (
	"repro/internal/mpi"
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
