package posix

import (
	"fmt"

	"repro/internal/payload"
	"repro/internal/recorder"
)

// Fopen opens a stream with a C fopen mode string ("r", "w", "a", "r+",
// "w+", "a+", optionally with a trailing "b" which is ignored). The stream
// shares the descriptor table with open(); the returned value is a
// descriptor usable with the F* calls.
func (p *Proc) Fopen(pth, mode string) (int, error) {
	flags, err := fopenFlags(mode)
	if err != nil {
		return -1, err
	}
	return p.openAs(recorder.FuncFopen, pth, flags, 0, true)
}

func fopenFlags(mode string) (int, error) {
	if len(mode) > 1 && (mode[len(mode)-1] == 'b') {
		mode = mode[:len(mode)-1]
	}
	switch mode {
	case "r":
		return recorder.ORdonly, nil
	case "r+":
		return recorder.ORdwr, nil
	case "w":
		return recorder.OWronly | recorder.OCreat | recorder.OTrunc, nil
	case "w+":
		return recorder.ORdwr | recorder.OCreat | recorder.OTrunc, nil
	case "a":
		return recorder.OWronly | recorder.OCreat | recorder.OAppend, nil
	case "a+":
		return recorder.ORdwr | recorder.OCreat | recorder.OAppend, nil
	}
	return 0, fmt.Errorf("posix: bad fopen mode %q", mode)
}

// Fwrite writes data.Len() bytes as nmemb items of the given size at the
// stream position. data.Len() must equal size*nmemb. The stream is
// unbuffered, so the written payload belongs to the file system, as with
// Write.
func (p *Proc) Fwrite(fdnum int, data payload.P, size, nmemb int64) (int64, error) {
	n := data.Len()
	ts := p.clock.Stamp()
	if size*nmemb != n {
		p.emit(recorder.FuncFwrite, ts, "", "", int64(fdnum), size, nmemb, -1)
		return -1, fmt.Errorf("posix: fwrite size %d*%d != %d bytes", size, nmemb, n)
	}
	f, err := p.get(fdnum)
	if err != nil {
		p.emit(recorder.FuncFwrite, ts, "", "", int64(fdnum), size, nmemb, -1)
		return -1, err
	}
	if f.appendMd {
		f.offset = f.h.VisibleSize(p.clock.Now())
	}
	cost, werr := p.pfsWrite(f.h, f.offset, data, p.clock.Now())
	p.advance(cost)
	if werr != nil {
		p.emit(recorder.FuncFwrite, ts, "", "", int64(fdnum), size, nmemb, -1)
		return -1, werr
	}
	f.offset += n
	p.emit(recorder.FuncFwrite, ts, "", "", int64(fdnum), size, nmemb, n)
	return nmemb, nil
}

// Fread reads up to size*nmemb bytes at the stream position. Its bytes
// come as Read's do.
func (p *Proc) Fread(fdnum int, size, nmemb int64) (payload.P, error) {
	ts := p.clock.Stamp()
	f, err := p.get(fdnum)
	if err != nil {
		p.emit(recorder.FuncFread, ts, "", "", int64(fdnum), size, nmemb, -1)
		return payload.P{}, err
	}
	data, cost, rerr := f.h.Read(f.offset, size*nmemb, p.clock.Now())
	p.advance(cost)
	if rerr != nil {
		p.emit(recorder.FuncFread, ts, "", "", int64(fdnum), size, nmemb, -1)
		return payload.P{}, rerr
	}
	f.offset += data.Len()
	p.emit(recorder.FuncFread, ts, "", "", int64(fdnum), size, nmemb, data.Len())
	return data, nil
}

// Fseek repositions the stream (same semantics as lseek, distinct record).
func (p *Proc) Fseek(fdnum int, off int64, whence int) (int64, error) {
	return p.seekAs(recorder.FuncFseek, fdnum, off, whence)
}

// Fclose closes the stream (a commit/close for visibility purposes).
func (p *Proc) Fclose(fdnum int) error { return p.closeAs(recorder.FuncFclose, fdnum) }
