package mpiio

import (
	"repro/internal/payload"
	"repro/internal/recorder"
)

// SetView sets the file-view displacement (etype/filetype structure beyond
// the displacement is recorded but not interpreted; the applications in the
// study use explicit offsets).
func (f *File) SetView(disp, blocklen, stride int64) {
	ts := f.os.Clock().Stamp()
	f.disp = disp
	emit(f, recorder.FuncMPIFileSetView, ts, "", int64(f.fd), disp, blocklen, stride)
}

// SeekPtr moves the individual file pointer (MPI_File_seek).
func (f *File) SeekPtr(off int64, whence int) int64 {
	ts := f.os.Clock().Stamp()
	switch whence {
	case recorder.SeekSet:
		f.indepPtr = off
	case recorder.SeekCur:
		f.indepPtr += off
	case recorder.SeekEnd:
		// View end is not tracked; treat as absolute (applications in the
		// study do not seek relative to end through MPI-IO).
		f.indepPtr = off
	}
	emit(f, recorder.FuncMPIFileSeek, ts, "", int64(f.fd), off, int64(whence))
	return f.indepPtr
}

// WriteAll is the collective write at the individual file pointer.
func (f *File) WriteAll(data payload.P) error {
	ts := f.os.Clock().Stamp()
	err := f.writeAll(f.disp+f.indepPtr, data)
	if err == nil {
		f.indepPtr += data.Len()
	}
	emit(f, recorder.FuncMPIFileWriteAll, ts, "", int64(f.fd), data.Len())
	return err
}

// SetSize truncates/extends the file (collective).
func (f *File) SetSize(size int64) error {
	ts := f.os.Clock().Stamp()
	var err error
	if f.comm.Rank() == 0 {
		err = f.os.Ftruncate(f.fd, size)
	}
	emit(f, recorder.FuncMPIFileSetSize, ts, "", int64(f.fd), size)
	f.comm.Barrier()
	return err
}

// SetAtomicity toggles MPI-IO atomic mode (recorded; the simulated PFS
// applies its configured semantics regardless).
func (f *File) SetAtomicity(on bool) {
	ts := f.os.Clock().Stamp()
	v := int64(0)
	if on {
		v = 1
	}
	emit(f, recorder.FuncMPIFileSetAtomicity, ts, "", int64(f.fd), v)
	f.comm.Barrier()
}

// Aggregators exposes the aggregator ranks (for tests and pattern checks).
func (f *File) Aggregators() []int { return append([]int(nil), f.aggs...) }
