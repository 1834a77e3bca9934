// Package mpiio emulates the MPI-IO library layer. Independent operations
// translate to positional POSIX I/O; collective operations implement
// two-phase I/O: ranks exchange their requests, a configurable set of
// aggregator processes (by default one per compute node) assembles
// contiguous file domains, and only the aggregators touch the file system —
// the mechanism behind the paper's M-1 access patterns (FLASH-fbs, VPIC-IO,
// LAMMPS-MPIIO) and the "six aggregator processes" of Figure 2(a).
//
// The exchange carries each rank's payload as a payload.P value, never its
// bytes: an aggregator writes a slice of the contributing rank's payload,
// so a fill reference reaches the file system as a reference, and bytes are
// made only where pieces of several ranks merge into one run. Message
// lengths, not allocations, drive the simulated cost.
//
// Every MPI_File_* call emits an MPI-IO-layer trace record; the POSIX
// traffic it generates is recorded by the posix layer underneath, giving the
// multi-level traces the paper's analysis consumes.
package mpiio

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/mpi"
	"repro/internal/payload"
	"repro/internal/posix"
	"repro/internal/recorder"
)

// Access mode flags (MPI_MODE_*-like).
const (
	ModeRdonly = 1 << iota
	ModeWronly
	ModeRdwr
	ModeCreate
)

// Options configures the emulated library.
type Options struct {
	// CBNodes is the number of collective-buffering aggregators
	// (ROMIO's cb_nodes). 0 means one aggregator per compute node.
	CBNodes int
	// CBBufferSize caps each aggregator's contiguous write size; larger
	// domains are written in several consecutive chunks. 0 means 16 MiB.
	// With CyclicDomains it is the block size of the round-robin domains.
	CBBufferSize int64
	// CyclicDomains assigns collective-buffering file domains block-cyclically
	// (blocks of CBBufferSize handed round-robin to the aggregators) instead
	// of as one contiguous span per aggregator. This makes each aggregator
	// write several strided blocks per collective call — the "strided
	// cyclic" in-file layout of Table 3 (FLASH-fbs, VPIC-IO).
	CyclicDomains bool
}

func (o Options) withDefaults(nodes int) Options {
	if o.CBNodes <= 0 {
		o.CBNodes = nodes
	}
	if o.CBBufferSize <= 0 {
		o.CBBufferSize = 16 << 20
	}
	return o
}

// File is one rank's handle on a file opened through MPI-IO.
type File struct {
	comm   *mpi.Proc
	os     *posix.Proc
	tracer *recorder.RankTracer
	opts   Options

	fd       int
	path     string
	amode    int
	disp     int64 // file-view displacement
	indepPtr int64 // individual file pointer
	aggs     []int // aggregator ranks
	closed   bool
}

// Open opens path collectively on every rank of the communicator.
func Open(comm *mpi.Proc, os *posix.Proc, tracer *recorder.RankTracer, path string, amode int, opts Options) (*File, error) {
	o := opts.withDefaults(comm.Nodes())
	ts := os.Clock().Stamp()
	flags := amodeToPosix(amode)
	fd, err := os.Open(path, flags, 0o644)
	f := &File{comm: comm, os: os, tracer: tracer, opts: o, fd: fd, path: path, amode: amode}
	f.aggs = aggregators(comm, o.CBNodes)
	emit(f, recorder.FuncMPIFileOpen, ts, path, int64(amode), int64(fd))
	if err != nil {
		return nil, fmt.Errorf("mpiio: %w", err)
	}
	// MPI_File_open is collective.
	comm.Barrier()
	return f, nil
}

func amodeToPosix(amode int) int {
	var flags int
	switch {
	case amode&ModeRdwr != 0:
		flags = recorder.ORdwr
	case amode&ModeWronly != 0:
		flags = recorder.OWronly
	default:
		flags = recorder.ORdonly
	}
	if amode&ModeCreate != 0 {
		flags |= recorder.OCreat
	}
	return flags
}

// aggregators picks the first rank of each of the first cbNodes nodes.
func aggregators(comm *mpi.Proc, cbNodes int) []int {
	// Node layout is block-wise; infer the PPN from node of rank size-1.
	// We enumerate node-leader ranks: a rank is a leader if its node differs
	// from rank-1's node. Rank 0 is always a leader.
	var leaders []int
	prevNode := -1
	for r := 0; r < comm.Size(); r++ {
		n := comm.NodeOfRank(r)
		if n != prevNode {
			leaders = append(leaders, r)
			prevNode = n
		}
	}
	if cbNodes < len(leaders) {
		leaders = leaders[:cbNodes]
	}
	return leaders
}

func emit(f *File, fn recorder.Func, ts uint64, path string, args ...int64) {
	f.tracer.Emit(recorder.Record{
		Layer:  recorder.LayerMPIIO,
		Func:   fn,
		TStart: ts,
		TEnd:   f.os.Clock().Stamp(),
		Path:   path,
	}, args)
}

// WriteAt writes independently at the given offset (relative to the view
// displacement).
func (f *File) WriteAt(off int64, data payload.P) error {
	ts := f.os.Clock().Stamp()
	_, err := f.os.Pwrite(f.fd, data, f.disp+off)
	emit(f, recorder.FuncMPIFileWriteAt, ts, "", int64(f.fd), data.Len(), off)
	return err
}

// ReadAt reads independently at the given offset.
func (f *File) ReadAt(off, n int64) ([]byte, error) {
	ts := f.os.Clock().Stamp()
	data, err := f.os.Pread(f.fd, n, f.disp+off)
	emit(f, recorder.FuncMPIFileReadAt, ts, "", int64(f.fd), n, off)
	return data, err
}

// Write writes independently at the individual file pointer.
func (f *File) Write(data payload.P) error {
	ts := f.os.Clock().Stamp()
	_, err := f.os.Pwrite(f.fd, data, f.disp+f.indepPtr)
	if err == nil {
		f.indepPtr += data.Len()
	}
	emit(f, recorder.FuncMPIFileWrite, ts, "", int64(f.fd), data.Len())
	return err
}

// Read reads independently at the individual file pointer.
func (f *File) Read(n int64) ([]byte, error) {
	ts := f.os.Clock().Stamp()
	data, err := f.os.Pread(f.fd, n, f.disp+f.indepPtr)
	if err == nil {
		f.indepPtr += int64(len(data))
	}
	emit(f, recorder.FuncMPIFileRead, ts, "", int64(f.fd), n)
	return data, err
}

// request is one rank's contribution to a collective operation.
type request struct {
	Rank int64
	Off  int64
	Len  int64
}

// extent is a request header: the (offset, length) of a collective
// request. A collective write or redistribution deposits it with the
// payload, a collective read alone.
func extent(off, n int64) [16]byte {
	var h [16]byte
	binary.LittleEndian.PutUint64(h[0:8], uint64(off))
	binary.LittleEndian.PutUint64(h[8:16], uint64(n))
	return h
}

func decodeExtent(b []byte) (off, n int64) {
	return int64(binary.LittleEndian.Uint64(b[0:8])), int64(binary.LittleEndian.Uint64(b[8:16]))
}

// WriteAtAll performs a collective write: every rank contributes (off, data)
// — possibly empty — and the aggregator ranks perform the actual file
// writes over contiguous file domains (two-phase I/O). The payload enters
// the exchange as the value it is: a fill reference reaches the file
// system as a reference, and a Bytes payload's buffer is kept, so the
// caller must not modify it afterwards (as with posix Pwrite). Its length
// drives the simulated cost.
func (f *File) WriteAtAll(off int64, data payload.P) error {
	ts := f.os.Clock().Stamp()
	h := extent(f.disp+off, data.Len())
	err := f.aggregateWrite(f.comm.Allgather(h[:], data))
	emit(f, recorder.FuncMPIFileWriteAtAll, ts, "", int64(f.fd), data.Len(), off)
	return err
}

// aggregateWrite is the write phase of two-phase I/O over the allgathered
// request headers and payloads (read-only, shared with every rank). Only
// aggregators decode them: the others do no file I/O in the write phase.
func (f *File) aggregateWrite(hdrs [][]byte, data []payload.P) error {
	myIdx := f.aggIndex()
	if myIdx < 0 {
		return nil
	}
	reqs := make([]request, 0, len(hdrs))
	var lo, hi int64
	first := true
	for r, h := range hdrs {
		off, n := decodeExtent(h)
		if n == 0 {
			continue
		}
		reqs = append(reqs, request{Rank: int64(r), Off: off, Len: n})
		if first || off < lo {
			lo = off
		}
		if first || off+n > hi {
			hi = off + n
		}
		first = false
	}
	if first {
		return nil // nothing to write anywhere
	}
	for _, dom := range f.domains(myIdx, lo, hi) {
		if err := f.writeDomain(reqs, data, dom[0], dom[1]); err != nil {
			return err
		}
	}
	return nil
}

// aggIndex returns this rank's position among the aggregators, or -1.
func (f *File) aggIndex() int {
	for i, a := range f.aggs {
		if a == f.comm.Rank() {
			return i
		}
	}
	return -1
}

// span returns aggregator idx's contiguous share [dLo, dHi) of [lo, hi);
// it is empty (dLo >= dHi) when there are more aggregators than bytes.
func (f *File) span(idx int, lo, hi int64) (dLo, dHi int64) {
	nAgg := int64(len(f.aggs))
	width := (hi - lo + nAgg - 1) / nAgg
	dLo = lo + int64(idx)*width
	return dLo, min(dLo+width, hi)
}

// domains returns the file-domain ranges owned by aggregator idx over
// [lo, hi): one contiguous span by default, or round-robin blocks of
// CBBufferSize with CyclicDomains.
func (f *File) domains(idx int, lo, hi int64) [][2]int64 {
	nAgg := int64(len(f.aggs))
	if !f.opts.CyclicDomains {
		dLo, dHi := f.span(idx, lo, hi)
		if dLo >= dHi {
			return nil
		}
		return [][2]int64{{dLo, dHi}}
	}
	var out [][2]int64
	b := f.opts.CBBufferSize
	for blk := int64(idx); ; blk += nAgg {
		dLo := lo + blk*b
		if dLo >= hi {
			break
		}
		dHi := dLo + b
		if dHi > hi {
			dHi = hi
		}
		out = append(out, [2]int64{dLo, dHi})
	}
	return out
}

// writeDomain assembles the contributions that fall inside [dLo, dHi) and
// writes coalesced contiguous runs (bounded by the collective buffer size).
// A piece is a Slice of its rank's payload, so a run of one piece is
// written as that slice (a fill reference stays one); the pieces of a
// longer run are merged into a fresh buffer.
func (f *File) writeDomain(reqs []request, data []payload.P, dLo, dHi int64) error {
	type piece struct {
		off  int64
		data payload.P
	}
	var pieces []piece
	for _, rq := range reqs {
		pLo, pHi := rq.Off, rq.Off+rq.Len
		if pHi <= dLo || pLo >= dHi {
			continue
		}
		lo, hi := max(pLo, dLo), min(pHi, dHi)
		pieces = append(pieces, piece{off: lo, data: data[rq.Rank].Slice(lo-pLo, hi-pLo)})
	}
	sort.Slice(pieces, func(i, j int) bool { return pieces[i].off < pieces[j].off })
	for i := 0; i < len(pieces); {
		// A run is a maximal chain of overlapping or adjacent pieces; it is
		// sized once and filled in offset order, so on overlap the later
		// piece wins.
		runOff := pieces[i].off
		end := runOff + pieces[i].data.Len()
		j := i + 1
		for ; j < len(pieces) && pieces[j].off <= end; j++ {
			end = max(end, pieces[j].off+pieces[j].data.Len())
		}
		run := pieces[i].data
		if j > i+1 {
			buf := make([]byte, end-runOff)
			for _, pc := range pieces[i:j] {
				pc.data.CopyTo(buf[pc.off-runOff:])
			}
			run = payload.Bytes(buf)
		}
		for run.Len() > 0 {
			n := min(run.Len(), f.opts.CBBufferSize)
			if _, err := f.os.Pwrite(f.fd, run.Slice(0, n), runOff); err != nil {
				return err
			}
			runOff += n
			run = run.Slice(n, run.Len())
		}
		i = j
	}
	return nil
}

// ReadAtAll performs a collective read: aggregators read contiguous domains
// and the data is redistributed to the requesting ranks.
func (f *File) ReadAtAll(off, n int64) ([]byte, error) {
	ts := f.os.Clock().Stamp()
	h := extent(f.disp+off, n)
	slots, _ := f.comm.Allgather(h[:], payload.P{})
	// Phase 1: every aggregator reads the union range restricted to its domain.
	var lo, hi int64
	first := true
	for _, s := range slots {
		o, l := decodeExtent(s)
		if l <= 0 {
			continue
		}
		if first || o < lo {
			lo = o
		}
		if first || o+l > hi {
			hi = o + l
		}
		first = false
	}
	var domain []byte
	var dLo int64
	if i := f.aggIndex(); !first && i >= 0 {
		var dHi int64
		dLo, dHi = f.span(i, lo, hi)
		if dLo < dHi {
			var err error
			domain, err = f.os.Pread(f.fd, dHi-dLo, dLo)
			if err != nil {
				return nil, err
			}
		}
	}
	// Phase 2: redistribute aggregator buffers to everyone; each rank copies
	// the overlap of every domain with [want, want+n).
	h = extent(dLo, int64(len(domain)))
	hdrs, domains := f.comm.Allgather(h[:], payload.Bytes(domain))
	out := make([]byte, n)
	want := f.disp + off
	for i, s := range hdrs {
		o, l := decodeExtent(s)
		lo, hi := max(o, want), min(o+l, want+n)
		if lo < hi {
			domains[i].Slice(lo-o, hi-o).CopyTo(out[lo-want : hi-want])
		}
	}
	emit(f, recorder.FuncMPIFileReadAtAll, ts, "", int64(f.fd), n, off)
	return out, nil
}

// Sync flushes the file (a commit operation under commit semantics).
// MPI_File_sync is collective.
func (f *File) Sync() error {
	ts := f.os.Clock().Stamp()
	err := f.os.Fsync(f.fd)
	emit(f, recorder.FuncMPIFileSync, ts, "", int64(f.fd))
	f.comm.Barrier()
	return err
}

// Close closes the file collectively. MPI_File_close synchronizes the
// communicator before releasing the file, so every rank's outstanding
// transfers complete before any descriptor closes.
func (f *File) Close() error {
	if f.closed {
		return fmt.Errorf("mpiio: double close of %s", f.path)
	}
	f.closed = true
	ts := f.os.Clock().Stamp()
	f.comm.Barrier()
	err := f.os.Close(f.fd)
	emit(f, recorder.FuncMPIFileClose, ts, "", int64(f.fd))
	f.comm.Barrier()
	return err
}
