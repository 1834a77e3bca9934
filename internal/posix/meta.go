package posix

import (
	"repro/internal/pfs"
	"repro/internal/recorder"
	"repro/internal/sim"
)

// This file implements the POSIX metadata and utility operations the paper
// monitors (Section 6.4, footnote 3). Operations that contact the metadata
// server go through the pfs; purely process-local ones (getcwd, umask, dup,
// fcntl, ...) only cost local time. All emit POSIX-layer records so the
// metadata census (Figure 3) sees them.

// Stat queries file metadata by path.
func (p *Proc) Stat(pth string) (pfs.FileInfo, error) {
	return p.statAs(recorder.FuncStat, pth)
}

// Lstat behaves as Stat (the simulated FS has no symlinks to follow).
func (p *Proc) Lstat(pth string) (pfs.FileInfo, error) {
	return p.statAs(recorder.FuncLstat, pth)
}

func (p *Proc) statAs(fn recorder.Func, pth string) (pfs.FileInfo, error) {
	ts := p.clock.Stamp()
	apth := p.abs(pth)
	info, cost, err := p.client.FS().Stat(apth)
	p.advance(cost + sim.MetaCost)
	p.emit(fn, ts, apth, "")
	return info, err
}

// Fstat queries metadata through a descriptor.
func (p *Proc) Fstat(fdnum int) (pfs.FileInfo, error) {
	ts := p.clock.Stamp()
	f, err := p.get(fdnum)
	if err != nil {
		p.emit(recorder.FuncFstat, ts, "", "", int64(fdnum))
		return pfs.FileInfo{}, err
	}
	info, cost, serr := p.client.FS().Stat(f.path)
	p.advance(cost + sim.MetaCost)
	p.emit(recorder.FuncFstat, ts, "", "", int64(fdnum))
	return info, serr
}

// Access checks whether a path exists (mode bits are not modeled).
func (p *Proc) Access(pth string) error {
	ts := p.clock.Stamp()
	apth := p.abs(pth)
	_, cost, err := p.client.FS().Stat(apth)
	p.advance(cost + sim.MetaCost)
	p.emit(recorder.FuncAccess, ts, apth, "")
	return err
}

// Unlink removes a file.
func (p *Proc) Unlink(pth string) error {
	ts := p.clock.Stamp()
	apth := p.abs(pth)
	cost, err := p.client.FS().Unlink(apth)
	p.advance(cost + sim.MetaCost)
	p.emit(recorder.FuncUnlink, ts, apth, "")
	return err
}

// Remove is the stdio remove(); same effect as Unlink, distinct record.
func (p *Proc) Remove(pth string) error {
	ts := p.clock.Stamp()
	apth := p.abs(pth)
	cost, err := p.client.FS().Unlink(apth)
	p.advance(cost + sim.MetaCost)
	p.emit(recorder.FuncRemove, ts, apth, "")
	return err
}

// Mkdir creates a directory.
func (p *Proc) Mkdir(pth string, mode int64) error {
	ts := p.clock.Stamp()
	apth := p.abs(pth)
	cost, err := p.client.FS().Mkdir(apth)
	p.advance(cost + sim.MetaCost)
	p.emit(recorder.FuncMkdir, ts, apth, "", mode)
	return err
}

// Getcwd reports the working directory.
func (p *Proc) Getcwd() string {
	ts := p.clock.Stamp()
	p.advance(sim.MetaCost / 4)
	p.emit(recorder.FuncGetcwd, ts, p.cwd, "")
	return p.cwd
}
