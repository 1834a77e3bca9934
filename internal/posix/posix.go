// Package posix implements the POSIX I/O layer of the simulated stack: file
// descriptors with tracked offsets, open flags (O_CREAT, O_TRUNC, O_APPEND),
// positional and stream I/O, the stdio family, and the metadata/utility
// operations the paper monitors in Section 6.4. Every call advances the
// rank's logical clock and emits a POSIX-layer trace record with the same
// argument conventions a real interception tracer would capture (see
// recorder.Record).
package posix

import (
	"errors"
	"fmt"
	"path"

	"repro/internal/payload"
	"repro/internal/pfs"
	"repro/internal/recorder"
	"repro/internal/sim"
	"repro/internal/wal"
)

// Errors returned by the layer (in addition to wrapped pfs errors).
var (
	errBadFD = errors.New("posix: bad file descriptor")
)

// FD is an open file descriptor.
type fd struct {
	num      int
	h        *pfs.Handle
	path     string
	offset   int64
	appendMd bool
	stdio    bool // opened via fopen
}

// Proc is one rank's POSIX I/O endpoint.
type Proc struct {
	rank   int
	clock  *sim.Clock
	tracer *recorder.RankTracer
	client *pfs.Client
	wal    *wal.Log // optional write-ahead log in front of the pfs data path
	jit    *sim.RNG // optional per-op cost jitter
	fds    map[int]*fd
	nextFD int
	cwd    string
	umask  int64
}

// NewProc creates the POSIX layer for a rank, sharing the rank's clock and
// tracer with the other layers.
func NewProc(rank int, client *pfs.Client, clock *sim.Clock, tracer *recorder.RankTracer) *Proc {
	return &Proc{
		rank:   rank,
		clock:  clock,
		tracer: tracer,
		client: client,
		fds:    make(map[int]*fd),
		nextFD: 3, // 0,1,2 reserved as on a real system
		cwd:    "/",
		umask:  0o022,
	}
}

// Clock exposes the rank clock.
func (p *Proc) Clock() *sim.Clock { return p.clock }

// SetJitter enables per-operation cost jitter drawn from rng (up to +25% of
// each operation's base cost). Real I/O times vary run to run — server
// queueing, cache state — which is what interleaves concurrent ranks'
// requests in the global stream (§6.2's "interleaved in time"). Without a
// source, costs are exact.
func (p *Proc) SetJitter(rng *sim.RNG) { p.jit = rng }

// SetWAL interposes a host-side write-ahead log between this rank's POSIX
// writes and the pfs: a write returns at local-append cost, with its payload
// already in the pfs (see internal/wal). Every other operation goes to the
// pfs directly.
func (p *Proc) SetWAL(l *wal.Log) { p.wal = l }

// pfsWrite is the one seam where a write either goes straight to the pfs or
// through the attached WAL.
func (p *Proc) pfsWrite(h *pfs.Handle, off int64, data payload.P, now uint64) (uint64, error) {
	if p.wal != nil {
		return p.wal.Write(h, off, data, now)
	}
	return h.Write(off, data, now)
}

// advance moves the clock by the operation cost plus jitter.
func (p *Proc) advance(cost uint64) {
	if p.jit != nil && cost > 0 {
		cost += p.jit.Uint64() % (cost/4 + 1)
	}
	p.clock.Advance(cost)
}

func (p *Proc) abs(pth string) string {
	if pth == "" {
		return p.cwd
	}
	if pth[0] != '/' {
		pth = p.cwd + "/" + pth
	}
	return path.Clean(pth)
}

func (p *Proc) emit(fn recorder.Func, ts uint64, pth, pth2 string, args ...int64) {
	p.tracer.Emit(recorder.Record{
		Layer:  recorder.LayerPOSIX,
		Func:   fn,
		TStart: ts,
		TEnd:   p.clock.Stamp(),
		Path:   pth,
		Path2:  pth2,
	}, args)
}

func (p *Proc) get(fdnum int) (*fd, error) {
	f, ok := p.fds[fdnum]
	if !ok {
		return nil, fmt.Errorf("%w: %d", errBadFD, fdnum)
	}
	return f, nil
}

// Open opens a file with POSIX flags, returning the new descriptor.
func (p *Proc) Open(pth string, flags int, mode int64) (int, error) {
	return p.openAs(recorder.FuncOpen, pth, flags, mode, false)
}

func (p *Proc) openAs(fn recorder.Func, pth string, flags int, mode int64, stdio bool) (int, error) {
	ts := p.clock.Stamp()
	apth := p.abs(pth)
	h, cost, err := p.client.Open(apth, flags, p.clock.Now())
	p.advance(cost)
	if err != nil {
		p.emit(fn, ts, apth, "", int64(flags), mode, -1)
		return -1, err
	}
	f := &fd{num: p.nextFD, h: h, path: apth, appendMd: flags&recorder.OAppend != 0, stdio: stdio}
	if f.appendMd {
		// POSIX: the read offset starts at 0; writes position at EOF.
		f.offset = 0
	}
	p.nextFD++
	p.fds[f.num] = f
	p.emit(fn, ts, apth, "", int64(flags), mode, int64(f.num))
	return f.num, nil
}

// Close closes a descriptor. Under commit/session semantics this publishes
// the process's pending writes (close acts as commit / ends the session).
func (p *Proc) Close(fdnum int) error {
	return p.closeAs(recorder.FuncClose, fdnum)
}

func (p *Proc) closeAs(fn recorder.Func, fdnum int) error {
	ts := p.clock.Stamp()
	f, err := p.get(fdnum)
	if err != nil {
		p.emit(fn, ts, "", "", int64(fdnum))
		return err
	}
	cost, cerr := f.h.Close(p.clock.Now())
	p.advance(cost)
	delete(p.fds, fdnum)
	p.emit(fn, ts, "", "", int64(fdnum))
	return cerr
}

// Write writes data at the descriptor's current offset (or at EOF under
// O_APPEND) and advances the offset. As with every write here, a payload
// that was written belongs to the file system (see pfs.Handle.Write): the
// caller must not modify a Bytes payload's buffer afterwards.
func (p *Proc) Write(fdnum int, data payload.P) (int64, error) {
	n := data.Len()
	ts := p.clock.Stamp()
	f, err := p.get(fdnum)
	if err != nil {
		p.emit(recorder.FuncWrite, ts, "", "", int64(fdnum), n, -1)
		return -1, err
	}
	if f.appendMd {
		f.offset = f.h.VisibleSize(p.clock.Now())
	}
	cost, werr := p.pfsWrite(f.h, f.offset, data, p.clock.Now())
	p.advance(cost)
	if werr != nil {
		p.emit(recorder.FuncWrite, ts, "", "", int64(fdnum), n, -1)
		return -1, werr
	}
	f.offset += n
	p.emit(recorder.FuncWrite, ts, "", "", int64(fdnum), n, n)
	return n, nil
}

// Read reads up to n bytes at the current offset, advancing it by the count
// actually read. The bytes come as the file system's read returns them (see
// pfs.Handle.Read): a reference where one reference extent covers the
// range, fresh bytes otherwise.
func (p *Proc) Read(fdnum int, n int64) (payload.P, error) {
	ts := p.clock.Stamp()
	f, err := p.get(fdnum)
	if err != nil {
		p.emit(recorder.FuncRead, ts, "", "", int64(fdnum), n, -1)
		return payload.P{}, err
	}
	data, cost, rerr := f.h.Read(f.offset, n, p.clock.Now())
	p.advance(cost)
	if rerr != nil {
		p.emit(recorder.FuncRead, ts, "", "", int64(fdnum), n, -1)
		return payload.P{}, rerr
	}
	f.offset += data.Len()
	p.emit(recorder.FuncRead, ts, "", "", int64(fdnum), n, data.Len())
	return data, nil
}

// Pwrite writes at an explicit offset without moving the descriptor offset.
// The written payload belongs to the file system, as with Write.
func (p *Proc) Pwrite(fdnum int, data payload.P, off int64) (int64, error) {
	n := data.Len()
	ts := p.clock.Stamp()
	f, err := p.get(fdnum)
	if err != nil {
		p.emit(recorder.FuncPwrite, ts, "", "", int64(fdnum), n, off, -1)
		return -1, err
	}
	cost, werr := p.pfsWrite(f.h, off, data, p.clock.Now())
	p.advance(cost)
	if werr != nil {
		p.emit(recorder.FuncPwrite, ts, "", "", int64(fdnum), n, off, -1)
		return -1, werr
	}
	p.emit(recorder.FuncPwrite, ts, "", "", int64(fdnum), n, off, n)
	return n, nil
}

// Pread reads at an explicit offset without moving the descriptor offset.
// Its bytes come as Read's do.
func (p *Proc) Pread(fdnum int, n, off int64) (payload.P, error) {
	ts := p.clock.Stamp()
	f, err := p.get(fdnum)
	if err != nil {
		p.emit(recorder.FuncPread, ts, "", "", int64(fdnum), n, off, -1)
		return payload.P{}, err
	}
	data, cost, rerr := f.h.Read(off, n, p.clock.Now())
	p.advance(cost)
	if rerr != nil {
		p.emit(recorder.FuncPread, ts, "", "", int64(fdnum), n, off, -1)
		return payload.P{}, rerr
	}
	p.emit(recorder.FuncPread, ts, "", "", int64(fdnum), n, off, data.Len())
	return data, nil
}

// Lseek repositions the descriptor offset and returns the new offset.
func (p *Proc) Lseek(fdnum int, off int64, whence int) (int64, error) {
	return p.seekAs(recorder.FuncLseek, fdnum, off, whence)
}

func (p *Proc) seekAs(fn recorder.Func, fdnum int, off int64, whence int) (int64, error) {
	ts := p.clock.Stamp()
	f, err := p.get(fdnum)
	if err != nil {
		p.emit(fn, ts, "", "", int64(fdnum), off, int64(whence), -1)
		return -1, err
	}
	p.advance(sim.SeekCost)
	var base int64
	switch whence {
	case recorder.SeekSet:
		base = 0
	case recorder.SeekCur:
		base = f.offset
	case recorder.SeekEnd:
		base = f.h.VisibleSize(p.clock.Now())
	default:
		p.emit(fn, ts, "", "", int64(fdnum), off, int64(whence), -1)
		return -1, fmt.Errorf("posix: bad whence %d", whence)
	}
	newOff := base + off
	if newOff < 0 {
		p.emit(fn, ts, "", "", int64(fdnum), off, int64(whence), -1)
		return -1, fmt.Errorf("posix: negative seek to %d", newOff)
	}
	f.offset = newOff
	p.emit(fn, ts, "", "", int64(fdnum), off, int64(whence), newOff)
	return newOff, nil
}

// Fsync commits the file: under commit semantics the process's pending
// writes become globally visible.
func (p *Proc) Fsync(fdnum int) error { return p.syncAs(recorder.FuncFsync, fdnum) }

func (p *Proc) syncAs(fn recorder.Func, fdnum int) error {
	ts := p.clock.Stamp()
	f, err := p.get(fdnum)
	if err != nil {
		p.emit(fn, ts, "", "", int64(fdnum))
		return err
	}
	cost, serr := f.h.Commit(p.clock.Now())
	p.advance(cost)
	p.emit(fn, ts, "", "", int64(fdnum))
	return serr
}

// Ftruncate sets the file length via a descriptor.
func (p *Proc) Ftruncate(fdnum int, length int64) error {
	ts := p.clock.Stamp()
	f, err := p.get(fdnum)
	if err != nil {
		p.emit(recorder.FuncFtruncate, ts, "", "", int64(fdnum), length)
		return err
	}
	cost, terr := f.h.Truncate(length)
	p.advance(cost)
	p.emit(recorder.FuncFtruncate, ts, "", "", int64(fdnum), length)
	return terr
}
