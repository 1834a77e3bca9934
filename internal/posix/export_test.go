package posix

import (
	"repro/internal/recorder"
	"repro/internal/sim"
)

// Chdir changes the working directory.
func (p *Proc) Chdir(pth string) error {
	ts := p.clock.Stamp()
	apth := p.abs(pth)
	p.advance(sim.MetaCost / 4)
	p.cwd = apth
	p.emit(recorder.FuncChdir, ts, apth, "")
	return nil
}

// Closedir ends a directory listing.
func (p *Proc) Closedir(pth string) {
	ts := p.clock.Stamp()
	p.advance(sim.MetaCost / 2)
	p.emit(recorder.FuncClosedir, ts, p.abs(pth), "")
}

// Creat is open(path, O_CREAT|O_WRONLY|O_TRUNC, mode).
func (p *Proc) Creat(pth string, mode int64) (int, error) {
	return p.openAs(recorder.FuncCreat, pth, recorder.OCreat|recorder.OWronly|recorder.OTrunc, mode, false)
}

// Dup duplicates a descriptor. The duplicate shares the pfs handle and the
// offset state (as on a real system, where both number the same open file
// description; our model copies the offset and keeps them loosely coupled,
// which suffices for the traced applications).
func (p *Proc) Dup(fdnum int) (int, error) {
	ts := p.clock.Stamp()
	f, err := p.get(fdnum)
	if err != nil {
		p.emit(recorder.FuncDup, ts, "", "", int64(fdnum), -1)
		return -1, err
	}
	n := &fd{num: p.nextFD, h: f.h, path: f.path, offset: f.offset, appendMd: f.appendMd}
	p.nextFD++
	p.fds[n.num] = n
	p.emit(recorder.FuncDup, ts, "", "", int64(fdnum), int64(n.num))
	return n.num, nil
}

// Fcntl issues a descriptor control operation (modeled as a no-op).
func (p *Proc) Fcntl(fdnum int, cmd int64) error {
	ts := p.clock.Stamp()
	_, err := p.get(fdnum)
	p.emit(recorder.FuncFcntl, ts, "", "", int64(fdnum), cmd)
	return err
}

// Fdatasync behaves as Fsync for visibility purposes.
func (p *Proc) Fdatasync(fdnum int) error { return p.syncAs(recorder.FuncFdatasync, fdnum) }

// Fflush flushes the stream; like fsync it acts as a commit operation
// (paper §6.3 footnote 2).
func (p *Proc) Fflush(fdnum int) error { return p.syncAs(recorder.FuncFflush, fdnum) }

// Fileno returns the descriptor behind a stream, emitting the utility-op
// record the paper counts in Figure 3.
func (p *Proc) Fileno(fdnum int) (int, error) {
	ts := p.clock.Stamp()
	_, err := p.get(fdnum)
	ret := int64(fdnum)
	if err != nil {
		ret = -1
	}
	p.emit(recorder.FuncFileno, ts, "", "", int64(fdnum), ret)
	if err != nil {
		return -1, err
	}
	return fdnum, nil
}

// Ftell reports the stream position.
func (p *Proc) Ftell(fdnum int) (int64, error) {
	ts := p.clock.Stamp()
	f, err := p.get(fdnum)
	if err != nil {
		p.emit(recorder.FuncFtell, ts, "", "", int64(fdnum), -1)
		return -1, err
	}
	p.emit(recorder.FuncFtell, ts, "", "", int64(fdnum), f.offset)
	return f.offset, nil
}

// Mmap records a memory-map of a descriptor (data access through the map is
// not modeled; LBANN-style apps use it for read-only loads).
func (p *Proc) Mmap(fdnum int, length int64) error {
	ts := p.clock.Stamp()
	_, err := p.get(fdnum)
	p.advance(sim.MetaCost)
	p.emit(recorder.FuncMmap, ts, "", "", int64(fdnum), length)
	return err
}

// Offset returns the descriptor's current offset (helper; no record).
func (p *Proc) Offset(fdnum int) (int64, error) {
	f, err := p.get(fdnum)
	if err != nil {
		return 0, err
	}
	return f.offset, nil
}

// Opendir begins a directory listing (the listing itself is not modeled;
// the calls exist for the metadata census).
func (p *Proc) Opendir(pth string) error {
	ts := p.clock.Stamp()
	apth := p.abs(pth)
	p.advance(sim.MetaCost)
	p.emit(recorder.FuncOpendir, ts, apth, "")
	return nil
}

// PathOf returns the absolute path behind a descriptor (helper for layered
// libraries; does not emit a record).
func (p *Proc) PathOf(fdnum int) (string, error) {
	f, err := p.get(fdnum)
	if err != nil {
		return "", err
	}
	return f.path, nil
}

// Rank returns the owning rank.
func (p *Proc) Rank() int { return p.rank }

// Readdir reads one directory entry.
func (p *Proc) Readdir(pth string) {
	ts := p.clock.Stamp()
	p.advance(sim.MetaCost / 2)
	p.emit(recorder.FuncReaddir, ts, p.abs(pth), "")
}

// Rename moves a file.
func (p *Proc) Rename(oldPth, newPth string) error {
	ts := p.clock.Stamp()
	ao, an := p.abs(oldPth), p.abs(newPth)
	cost, err := p.client.FS().Rename(ao, an)
	p.advance(cost + sim.MetaCost)
	p.emit(recorder.FuncRename, ts, ao, an)
	return err
}

// Truncate sets a file's length by path.
func (p *Proc) Truncate(pth string, length int64) error {
	ts := p.clock.Stamp()
	apth := p.abs(pth)
	// Path truncate: open-truncate-close on the metadata path.
	h, cost, err := p.client.Open(apth, recorder.OWronly, p.clock.Now())
	p.advance(cost)
	if err == nil {
		var tcost uint64
		tcost, err = h.Truncate(length)
		p.advance(tcost)
		ccost, _ := h.Close(p.clock.Now())
		p.advance(ccost)
	}
	p.emit(recorder.FuncTruncate, ts, apth, "", length)
	return err
}

// Umask sets the file-creation mask and returns the previous value.
func (p *Proc) Umask(mask int64) int64 {
	ts := p.clock.Stamp()
	old := p.umask
	p.umask = mask
	p.emit(recorder.FuncUmask, ts, "", "", mask, old)
	return old
}
