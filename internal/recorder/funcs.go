package recorder

// Func identifies a traced function. The set mirrors what the paper's
// Recorder tool intercepts: the POSIX data and metadata/utility operations
// listed in Section 6.4 (footnote 3), the MPI communication calls used for
// happens-before validation (Section 5.2), MPI-IO, and the higher-level I/O
// library entry points (HDF5, NetCDF, ADIOS, Silo).
type Func uint16

const (
	FuncUnknown Func = iota

	// POSIX data operations.
	FuncOpen
	FuncCreat
	FuncClose
	FuncRead
	FuncWrite
	FuncPread
	FuncPwrite
	FuncLseek
	FuncReadv
	FuncWritev
	FuncFsync
	FuncFdatasync

	// POSIX stdio.
	FuncFopen
	FuncFclose
	FuncFread
	FuncFwrite
	FuncFseek
	FuncFtell
	FuncFflush

	// POSIX metadata and utility operations (paper §6.4 footnote 3).
	FuncStat
	FuncLstat
	FuncFstat
	FuncAccess
	FuncFaccessat
	FuncUnlink
	FuncMkdir
	FuncRmdir
	FuncChdir
	FuncGetcwd
	FuncRename
	FuncLink
	FuncSymlink
	FuncReadlink
	FuncChmod
	FuncChown
	FuncUtime
	FuncOpendir
	FuncReaddir
	FuncClosedir
	FuncMknod
	FuncFcntl
	FuncDup
	FuncDup2
	FuncPipe
	FuncMkfifo
	FuncUmask
	FuncFileno
	FuncTmpfile
	FuncRemove
	FuncTruncate
	FuncFtruncate
	FuncMmap
	FuncMsync

	// MPI communication (used for happens-before reconstruction).
	FuncMPIBarrier
	FuncMPISend
	FuncMPIRecv
	FuncMPIBcast
	FuncMPIReduce
	FuncMPIAllreduce
	FuncMPIGather
	FuncMPIGatherv
	FuncMPIScatter
	FuncMPIAllgather
	FuncMPIAlltoall

	// MPI-IO.
	FuncMPIFileOpen
	FuncMPIFileClose
	FuncMPIFileSetView
	FuncMPIFileSeek
	FuncMPIFileRead
	FuncMPIFileWrite
	FuncMPIFileReadAt
	FuncMPIFileWriteAt
	FuncMPIFileReadAtAll
	FuncMPIFileWriteAtAll
	FuncMPIFileReadAll
	FuncMPIFileWriteAll
	FuncMPIFileSync
	FuncMPIFileSetSize
	FuncMPIFileSetAtomicity

	// HDF5.
	FuncH5Fcreate
	FuncH5Fopen
	FuncH5Fclose
	FuncH5Fflush
	FuncH5Gcreate
	FuncH5Dcreate
	FuncH5Dopen
	FuncH5Dclose
	FuncH5Dwrite
	FuncH5Dread
	FuncH5Acreate
	FuncH5Awrite
	FuncH5Aread

	// NetCDF.
	FuncNCCreate
	FuncNCOpen
	FuncNCClose
	FuncNCEnddef
	FuncNCRedef
	FuncNCSync
	FuncNCPutVara
	FuncNCGetVara

	// ADIOS.
	FuncADIOSOpen
	FuncADIOSClose
	FuncADIOSPut
	FuncADIOSGet
	FuncADIOSEndStep

	// Silo.
	FuncDBCreate
	FuncDBOpen
	FuncDBClose
	FuncDBPutQuadmesh
	FuncDBPutQuadvar
	FuncDBMkDir
	FuncDBSetDir

	funcCount // sentinel; keep last
)

var funcNames = [...]string{
	FuncUnknown:   "unknown",
	FuncOpen:      "open",
	FuncCreat:     "creat",
	FuncClose:     "close",
	FuncRead:      "read",
	FuncWrite:     "write",
	FuncPread:     "pread",
	FuncPwrite:    "pwrite",
	FuncLseek:     "lseek",
	FuncReadv:     "readv",
	FuncWritev:    "writev",
	FuncFsync:     "fsync",
	FuncFdatasync: "fdatasync",

	FuncFopen:  "fopen",
	FuncFclose: "fclose",
	FuncFread:  "fread",
	FuncFwrite: "fwrite",
	FuncFseek:  "fseek",
	FuncFtell:  "ftell",
	FuncFflush: "fflush",

	FuncStat:      "stat",
	FuncLstat:     "lstat",
	FuncFstat:     "fstat",
	FuncAccess:    "access",
	FuncFaccessat: "faccessat",
	FuncUnlink:    "unlink",
	FuncMkdir:     "mkdir",
	FuncRmdir:     "rmdir",
	FuncChdir:     "chdir",
	FuncGetcwd:    "getcwd",
	FuncRename:    "rename",
	FuncLink:      "link",
	FuncSymlink:   "symlink",
	FuncReadlink:  "readlink",
	FuncChmod:     "chmod",
	FuncChown:     "chown",
	FuncUtime:     "utime",
	FuncOpendir:   "opendir",
	FuncReaddir:   "readdir",
	FuncClosedir:  "closedir",
	FuncMknod:     "mknod",
	FuncFcntl:     "fcntl",
	FuncDup:       "dup",
	FuncDup2:      "dup2",
	FuncPipe:      "pipe",
	FuncMkfifo:    "mkfifo",
	FuncUmask:     "umask",
	FuncFileno:    "fileno",
	FuncTmpfile:   "tmpfile",
	FuncRemove:    "remove",
	FuncTruncate:  "truncate",
	FuncFtruncate: "ftruncate",
	FuncMmap:      "mmap",
	FuncMsync:     "msync",

	FuncMPIBarrier:   "MPI_Barrier",
	FuncMPISend:      "MPI_Send",
	FuncMPIRecv:      "MPI_Recv",
	FuncMPIBcast:     "MPI_Bcast",
	FuncMPIReduce:    "MPI_Reduce",
	FuncMPIAllreduce: "MPI_Allreduce",
	FuncMPIGather:    "MPI_Gather",
	FuncMPIGatherv:   "MPI_Gatherv",
	FuncMPIScatter:   "MPI_Scatter",
	FuncMPIAllgather: "MPI_Allgather",
	FuncMPIAlltoall:  "MPI_Alltoall",

	FuncMPIFileOpen:         "MPI_File_open",
	FuncMPIFileClose:        "MPI_File_close",
	FuncMPIFileSetView:      "MPI_File_set_view",
	FuncMPIFileSeek:         "MPI_File_seek",
	FuncMPIFileRead:         "MPI_File_read",
	FuncMPIFileWrite:        "MPI_File_write",
	FuncMPIFileReadAt:       "MPI_File_read_at",
	FuncMPIFileWriteAt:      "MPI_File_write_at",
	FuncMPIFileReadAtAll:    "MPI_File_read_at_all",
	FuncMPIFileWriteAtAll:   "MPI_File_write_at_all",
	FuncMPIFileReadAll:      "MPI_File_read_all",
	FuncMPIFileWriteAll:     "MPI_File_write_all",
	FuncMPIFileSync:         "MPI_File_sync",
	FuncMPIFileSetSize:      "MPI_File_set_size",
	FuncMPIFileSetAtomicity: "MPI_File_set_atomicity",

	FuncH5Fcreate: "H5Fcreate",
	FuncH5Fopen:   "H5Fopen",
	FuncH5Fclose:  "H5Fclose",
	FuncH5Fflush:  "H5Fflush",
	FuncH5Gcreate: "H5Gcreate",
	FuncH5Dcreate: "H5Dcreate",
	FuncH5Dopen:   "H5Dopen",
	FuncH5Dclose:  "H5Dclose",
	FuncH5Dwrite:  "H5Dwrite",
	FuncH5Dread:   "H5Dread",
	FuncH5Acreate: "H5Acreate",
	FuncH5Awrite:  "H5Awrite",
	FuncH5Aread:   "H5Aread",

	FuncNCCreate:  "nc_create",
	FuncNCOpen:    "nc_open",
	FuncNCClose:   "nc_close",
	FuncNCEnddef:  "nc_enddef",
	FuncNCRedef:   "nc_redef",
	FuncNCSync:    "nc_sync",
	FuncNCPutVara: "nc_put_vara",
	FuncNCGetVara: "nc_get_vara",

	FuncADIOSOpen:    "adios2_open",
	FuncADIOSClose:   "adios2_close",
	FuncADIOSPut:     "adios2_put",
	FuncADIOSGet:     "adios2_get",
	FuncADIOSEndStep: "adios2_end_step",

	FuncDBCreate:      "DBCreate",
	FuncDBOpen:        "DBOpen",
	FuncDBClose:       "DBClose",
	FuncDBPutQuadmesh: "DBPutQuadmesh",
	FuncDBPutQuadvar:  "DBPutQuadvar",
	FuncDBMkDir:       "DBMkDir",
	FuncDBSetDir:      "DBSetDir",
}

// String returns the C-style function name, e.g. "pwrite" or "H5Fflush".
func (f Func) String() string {
	if int(f) < len(funcNames) && funcNames[f] != "" {
		return funcNames[f]
	}
	return "func#" + itoa(int(f))
}

// valid reports whether f is a known traced function.
func (f Func) valid() bool { return f > FuncUnknown && f < funcCount }

// NumFuncs returns the number of known functions (for table sizing).
func NumFuncs() int { return int(funcCount) }

// itoa is a minimal integer formatter to keep this file free of fmt.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
