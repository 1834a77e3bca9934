// Package recorder is the in-simulation analogue of the multi-level I/O
// tracer Recorder used by the paper (Wang et al., IPDPSW 2020). Each I/O
// layer (POSIX, MPI, MPI-IO, HDF5, NetCDF, ADIOS, Silo) emits one Record per
// intercepted call with entry/exit timestamps, the function identity and its
// integer arguments — everything the paper's Section 5 analysis consumes,
// and nothing more (no buffer contents, no simulator internals).
package recorder

import "fmt"

// Layer identifies which level of the I/O stack produced a record.
type Layer uint8

const (
	LayerPOSIX Layer = iota
	LayerMPI         // MPI point-to-point and collective communication
	LayerMPIIO
	LayerHDF5
	LayerNetCDF
	LayerADIOS
	LayerSilo
	LayerApp // calls issued directly by application code
	layerCount
)

var layerNames = [...]string{
	LayerPOSIX:  "POSIX",
	LayerMPI:    "MPI",
	LayerMPIIO:  "MPI-IO",
	LayerHDF5:   "HDF5",
	LayerNetCDF: "NetCDF",
	LayerADIOS:  "ADIOS",
	LayerSilo:   "Silo",
	LayerApp:    "APP",
}

func (l Layer) String() string {
	if int(l) < len(layerNames) {
		return layerNames[l]
	}
	return fmt.Sprintf("layer#%d", int(l))
}

// NumLayers returns the number of defined layers.
func NumLayers() int { return int(layerCount) }

// Record is one traced call.
//
// Argument conventions (indices into Args), mirroring how a real tracer
// stores call parameters and return values:
//
//	open/creat:        Path; Args = [flags, mode, retFD]
//	close:             Args = [fd]
//	read/write:        Args = [fd, count, retBytes]
//	pread/pwrite:      Args = [fd, count, offset, retBytes]
//	lseek/fseek:       Args = [fd, offset, whence, retOffset]
//	fopen:             Path; Args = [flags, 0, retFD]      (mode string mapped to open flags)
//	fread/fwrite:      Args = [fd, size, nmemb, retBytes]
//	fsync/fdatasync:   Args = [fd]
//	fflush/fclose:     Args = [fd]
//	ftruncate:         Args = [fd, length]
//	truncate:          Path; Args = [length]
//	fstat/fileno:      Args = [fd]
//	stat/lstat/access/unlink/mkdir/...: Path
//	rename:            Path = old path (new path in Path2)
//	MPI_Send/Recv:     Args = [peer, tag, bytes]
//	MPI collectives:   Args = [root, bytes, seq]            (root = -1 if rootless)
//	MPI_File_open:     Path; Args = [amode, retFH]
//	MPI_File_*_at*:    Args = [fh, count, offset]
//	MPI_File_read/write(_all): Args = [fh, count]
//	MPI_File_set_view: Args = [fh, disp, blocklen, stride]
//	H5*/nc_*/adios2_*/DB*: Path where applicable; Args library-specific
//
// TStart/TEnd are local-clock stamps (skew included) until the trace is
// aligned; see NewTrace.
type Record struct {
	Rank   int32
	Layer  Layer
	Func   Func
	TStart uint64
	TEnd   uint64
	Path   string
	Path2  string // second path operand (rename, link, symlink)
	Args   []int64
}

// Arg returns Args[i], or 0 if absent — convenient for analyzers that must
// tolerate short records.
func (r *Record) Arg(i int) int64 {
	if i < 0 || i >= len(r.Args) {
		return 0
	}
	return r.Args[i]
}

func (r Record) String() string {
	return fmt.Sprintf("[r%d %s %s t=%d..%d path=%q args=%v]",
		r.Rank, r.Layer, r.Func, r.TStart, r.TEnd, r.Path, r.Args)
}

// IsDataOp reports whether the record is a POSIX-layer data operation
// (a read or write of file bytes) — the inputs to overlap detection.
func (r *Record) IsDataOp() bool {
	if r.Layer != LayerPOSIX {
		return false
	}
	switch r.Func {
	case FuncRead, FuncWrite, FuncPread, FuncPwrite, FuncReadv, FuncWritev,
		FuncFread, FuncFwrite:
		return true
	}
	return false
}

// IsWriteOp reports whether the record writes file bytes at the POSIX layer.
func (r *Record) IsWriteOp() bool {
	if r.Layer != LayerPOSIX {
		return false
	}
	switch r.Func {
	case FuncWrite, FuncPwrite, FuncWritev, FuncFwrite:
		return true
	}
	return false
}

// IsOpenOp reports whether the record opens a file at the POSIX layer.
func (r *Record) IsOpenOp() bool {
	if r.Layer != LayerPOSIX {
		return false
	}
	switch r.Func {
	case FuncOpen, FuncCreat, FuncFopen, FuncTmpfile:
		return true
	}
	return false
}

// IsCloseOp reports whether the record closes a file at the POSIX layer.
func (r *Record) IsCloseOp() bool {
	if r.Layer != LayerPOSIX {
		return false
	}
	return r.Func == FuncClose || r.Func == FuncFclose
}

// IsMetadataOp reports whether the record is one of the POSIX metadata /
// utility operations the paper monitors in Section 6.4 (footnote 3).
func (r *Record) IsMetadataOp() bool {
	if r.Layer != LayerPOSIX {
		return false
	}
	switch r.Func {
	case FuncMmap, FuncMsync, FuncStat, FuncLstat, FuncFstat, FuncGetcwd,
		FuncMkdir, FuncRmdir, FuncChdir, FuncLink, FuncUnlink, FuncSymlink,
		FuncReadlink, FuncRename, FuncChmod, FuncChown, FuncUtime,
		FuncOpendir, FuncReaddir, FuncClosedir, FuncMknod, FuncFcntl,
		FuncDup, FuncDup2, FuncPipe, FuncMkfifo, FuncUmask, FuncFileno,
		FuncAccess, FuncFaccessat, FuncTmpfile, FuncRemove, FuncTruncate,
		FuncFtruncate:
		return true
	}
	return false
}

// Open flag bits used in records (subset of POSIX <fcntl.h>, with the same
// conventional values so traces read naturally).
const (
	ORdonly = 0x0
	OWronly = 0x1
	ORdwr   = 0x2
	OCreat  = 0x40
	OTrunc  = 0x200
	OAppend = 0x400
)

// Seek whence values.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)
