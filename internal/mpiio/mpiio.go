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
	"errors"
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

// ReadAt reads independently at the given offset. Its bytes come as
// posix Pread returns them.
func (f *File) ReadAt(off, n int64) (payload.P, error) {
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
func (f *File) Read(n int64) (payload.P, error) {
	ts := f.os.Clock().Stamp()
	data, err := f.os.Pread(f.fd, n, f.disp+f.indepPtr)
	if err == nil {
		f.indepPtr += data.Len()
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

// errDomainLost reports a collective request that overlaps the file domain
// of an aggregator that departed the job: nobody wrote or read that part of
// the request.
var errDomainLost = errors.New("mpiio: a departed aggregator's file domain holds part of the request")

// WriteAtAll performs a collective write: every rank contributes (off, data)
// — possibly empty — and the aggregator ranks perform the actual file
// writes over contiguous file domains (two-phase I/O). The payload enters
// the exchange as the value it is: a fill reference reaches the file
// system as a reference, and a Bytes payload's buffer is kept, so the
// caller must not modify it afterwards (as with posix Pwrite). Its length
// drives the simulated cost. A rank whose request overlaps a departed
// aggregator's domain gets an errDomainLost error, after the live
// aggregators wrote theirs.
func (f *File) WriteAtAll(off int64, data payload.P) error {
	ts := f.os.Clock().Stamp()
	err := f.writeAll(f.disp+off, data)
	emit(f, recorder.FuncMPIFileWriteAtAll, ts, "", int64(f.fd), data.Len(), off)
	return err
}

// writeAll is the two-phase collective write of data at file offset off.
func (f *File) writeAll(off int64, data payload.P) error {
	h := extent(off, data.Len())
	hdrs, datas := f.comm.Allgather(h[:], data)
	lo, hi, ok := union(hdrs)
	if !ok {
		return nil // nothing to write anywhere
	}
	if i := f.aggIndex(); i >= 0 {
		if err := f.aggregateWrite(hdrs, datas, f.domains(i, lo, hi)); err != nil {
			return err
		}
	}
	return f.lost(hdrs, "written", off, data.Len(), func(i int) [][2]int64 { return f.domains(i, lo, hi) })
}

// union returns the smallest range [lo, hi) that holds every nonempty
// request of the allgathered headers, and whether there is one. A rank
// that departed the job deposited nothing and leaves an empty header.
func union(hdrs [][]byte) (lo, hi int64, ok bool) {
	for _, h := range hdrs {
		if len(h) == 0 {
			continue // departed
		}
		o, n := decodeExtent(h)
		if n <= 0 {
			continue
		}
		if !ok || o < lo {
			lo = o
		}
		if !ok || o+n > hi {
			hi = o + n
		}
		ok = true
	}
	return lo, hi, ok
}

// lost returns an errDomainLost error when [off, off+n) overlaps one of
// the domains of an aggregator that left an empty header: that aggregator
// departed, so the overlap was never moved.
func (f *File) lost(hdrs [][]byte, verb string, off, n int64, domains func(idx int) [][2]int64) error {
	for i, a := range f.aggs {
		if len(hdrs[a]) != 0 {
			continue
		}
		for _, d := range domains(i) {
			if lo, hi := max(d[0], off), min(d[1], off+n); lo < hi {
				return fmt.Errorf("%w: bytes [%d, %d) were not %s (aggregator rank %d departed)", errDomainLost, lo, hi, verb, a)
			}
		}
	}
	return nil
}

// aggregateWrite is this aggregator's write phase of two-phase I/O over the
// allgathered request headers and payloads (read-only, shared with every
// rank): it writes the contributions inside each of its domains.
func (f *File) aggregateWrite(hdrs [][]byte, data []payload.P, domains [][2]int64) error {
	reqs := make([]request, 0, len(hdrs))
	for r, h := range hdrs {
		if len(h) == 0 {
			continue // departed
		}
		if off, n := decodeExtent(h); n > 0 {
			reqs = append(reqs, request{Rank: int64(r), Off: off, Len: n})
		}
	}
	for _, dom := range domains {
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
// and the data is redistributed to the requesting ranks. The result has n
// bytes: a slice of the one domain that covers the request, which stays a
// reference when the aggregator read one, or fresh bytes (zero where no
// domain reaches). A rank whose request overlaps a departed aggregator's
// domain gets an errDomainLost error.
func (f *File) ReadAtAll(off, n int64) (payload.P, error) {
	ts := f.os.Clock().Stamp()
	want := f.disp + off
	h := extent(want, n)
	slots, _ := f.comm.Allgather(h[:], payload.P{})
	// Phase 1: every aggregator reads the union range restricted to its domain.
	lo, hi, ok := union(slots)
	var domain payload.P
	var dLo int64
	if i := f.aggIndex(); ok && i >= 0 {
		var dHi int64
		dLo, dHi = f.span(i, lo, hi)
		if dLo < dHi {
			var err error
			domain, err = f.os.Pread(f.fd, dHi-dLo, dLo)
			if err != nil {
				return payload.P{}, err
			}
		}
	}
	// Phase 2: redistribute the domains to everyone; each rank takes the
	// overlap of every domain with [want, want+n).
	h = extent(dLo, domain.Len())
	hdrs, domains := f.comm.Allgather(h[:], domain)
	out := assemble(hdrs, domains, want, n)
	var err error
	if ok {
		err = f.lost(slots, "read", want, n, func(i int) [][2]int64 {
			if dLo, dHi := f.span(i, lo, hi); dLo < dHi {
				return [][2]int64{{dLo, dHi}}
			}
			return nil
		})
	}
	emit(f, recorder.FuncMPIFileReadAtAll, ts, "", int64(f.fd), n, off)
	if err != nil {
		return payload.P{}, err
	}
	return out, nil
}

// assemble builds [want, want+n) from the redistributed domains. A domain
// that covers it all gives its slice, copied if it is bytes (every rank
// shares the aggregator's buffer); otherwise each domain's overlap is
// copied into fresh bytes.
func assemble(hdrs [][]byte, domains []payload.P, want, n int64) payload.P {
	var out []byte
	for i, s := range hdrs {
		if len(s) == 0 {
			continue // departed
		}
		o, l := decodeExtent(s)
		lo, hi := max(o, want), min(o+l, want+n)
		if lo >= hi {
			continue
		}
		if lo == want && hi == want+n {
			return domains[i].Slice(lo-o, hi-o).Clone()
		}
		if out == nil {
			out = make([]byte, n)
		}
		domains[i].Slice(lo-o, hi-o).CopyTo(out[lo-want : hi-want])
	}
	if out == nil {
		out = make([]byte, n)
	}
	return payload.Bytes(out)
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
