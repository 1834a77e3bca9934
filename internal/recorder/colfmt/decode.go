package colfmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/recorder"
	"repro/internal/recorder/colwire"
)

// ErrBadMagic reports a stream that does not begin with the columnar magic:
// not a rank stream at all, or one in the retired record-framed v1 format,
// which a rerun of semtrace (deterministic in app, ranks, PPN and seed)
// regenerates as columnar.
var ErrBadMagic = errors.New("colfmt: bad magic")

// corruptError reports a frame that failed CRC, framing, or column decoding
// mid-stream — damage, as opposed to a torn tail where bytes are simply
// missing (that is recorder.TruncatedError). The valid record prefix decoded
// before the bad block is always preserved alongside it.
type corruptError struct {
	Block  int    // 0-based index of the frame that failed
	Reason string // what broke
}

func (e *corruptError) Error() string {
	return fmt.Sprintf("colfmt: block %d corrupt: %s", e.Block, e.Reason)
}

// Reader decodes one columnar rank stream from a byte slice — memory-mapped
// by the directory loaders when the backend allows it, read whole
// otherwise; the caller owns the mapping. All decoding is bounds-checked
// against the slice; a Reader never reads outside data.
type Reader struct {
	data     []byte
	rank     int
	declared uint64
	blockOff int      // offset of the first frame
	dictOff  int      // offset of the footer dictionary frame; -1 if unusable
	dict     []string // footer dictionary; nil when dictOff < 0
}

// NewReader parses the stream header and probes the footer of an in-memory
// columnar stream. It fails only when the header itself is unusable (torn,
// bad magic, forged rank/count) — a torn or corrupt tail is detected during
// the cursor walk so the valid prefix stays recoverable.
func NewReader(data []byte) (*Reader, error) {
	off := len(colwire.Magic)
	if len(data) < off && string(data) == colwire.Magic[:len(data)] {
		return nil, &recorder.TruncatedError{} // torn inside the magic
	}
	if len(data) < off || string(data[:off]) != colwire.Magic {
		return nil, fmt.Errorf("%w %q", ErrBadMagic, data[:min(len(data), off)])
	}
	urank, off, ok := uvarintAt(data, off)
	if !ok {
		return nil, &recorder.TruncatedError{}
	}
	if urank >= colwire.MaxRank {
		return nil, fmt.Errorf("colfmt: rank %d out of range", urank)
	}
	declared, off, ok := uvarintAt(data, off)
	if !ok {
		return nil, &recorder.TruncatedError{}
	}
	if declared > colwire.MaxRecords {
		return nil, fmt.Errorf("colfmt: record count %d too large", declared)
	}
	r := &Reader{data: data, rank: int(urank), declared: declared, blockOff: off, dictOff: -1}
	r.probeFooter()
	return r, nil
}

// probeFooter validates the trailer and footer dictionary frame. Success
// arms the fast path: the dictionary is interned once and any data block is
// decodable in isolation (absolute dictionary refs, block-local timestamps),
// which is also what lets a lenient cursor skip a corrupt mid-file block.
// Failure leaves the Reader in salvage mode: the cursor rebuilds the
// dictionary incrementally from per-block deltas instead.
func (r *Reader) probeFooter() {
	data := r.data
	if len(data) < r.blockOff+colwire.FrameHdrLen+1+colwire.TrailerLen {
		return
	}
	tr := data[len(data)-colwire.TrailerLen:]
	if string(tr[16:]) != colwire.EndMagic {
		return
	}
	dictOff := binary.LittleEndian.Uint64(tr[0:])
	count := binary.LittleEndian.Uint64(tr[8:])
	if count != r.declared {
		return
	}
	if dictOff < uint64(r.blockOff) || dictOff > uint64(len(data)-colwire.TrailerLen-colwire.FrameHdrLen) {
		return
	}
	fo := int(dictOff)
	if data[fo] != colwire.KindDict {
		return
	}
	plen := binary.LittleEndian.Uint32(data[fo+1:])
	wantCRC := binary.LittleEndian.Uint32(data[fo+5:])
	if uint64(plen) > colwire.MaxPayload || fo+colwire.FrameHdrLen+int(plen) != len(data)-colwire.TrailerLen {
		return
	}
	payload := data[fo+colwire.FrameHdrLen : fo+colwire.FrameHdrLen+int(plen)]
	if crc32.Checksum(payload, colwire.Castagnoli) != wantCRC {
		return
	}
	dict, ok := parseDict(payload, nil)
	if !ok {
		return
	}
	r.dictOff = fo
	r.dict = dict
}

// parseDict decodes a string-table payload (or a per-block delta section
// laid out the same way), appending to dst. Strings are copied out of data:
// they must outlive an unmapped Reader.
func parseDict(payload []byte, dst []string) ([]string, bool) {
	off := 0
	count, off, ok := uvarintAt(payload, off)
	if !ok || count > uint64(len(payload)) {
		return dst, false
	}
	for i := uint64(0); i < count; i++ {
		n, noff, ok := uvarintAt(payload, off)
		if !ok || n > colwire.MaxString || noff+int(n) > len(payload) {
			return dst, false
		}
		dst = append(dst, string(payload[noff:noff+int(n)]))
		off = noff + int(n)
	}
	if off != len(payload) {
		return dst, false
	}
	return dst, true
}

// Rank returns the stream's rank from the header.
func (r *Reader) Rank() int { return r.rank }

// declaredRecords returns the record count the header promises — the
// exact-salvage denominator even when the tail (and footer) is gone.
func (r *Reader) declaredRecords() int { return int(r.declared) }

// cursorStats reports what one cursor walk decoded, for per-block salvage
// accounting.
type cursorStats struct {
	Records int // records yielded
	Blocks  int // data blocks decoded cleanly
	Skipped int // corrupt data blocks skipped (lenient walk, intact footer)
}

// Cursor walks a stream record by record without materializing a slice: the
// yielded Record reuses one struct whose Args alias an internal buffer,
// both valid only until the next call to Next. Columns are consumed
// in place from the mapped bytes; the only per-record heap work is nothing
// at all once the args buffer has grown to its high-water mark.
type Cursor struct {
	r       *Reader
	lenient bool
	dict    []string
	incr    bool // no footer: dictionary built from per-block deltas
	off     int  // offset of the next frame
	block   int  // index of the next frame

	// Current block state: remaining bytes of each column segment.
	n, i    int
	prevT   uint64
	layers  []byte
	funcs   []byte
	tstarts []byte
	durs    []byte
	paths   []byte
	paths2  []byte
	nargs   []byte
	args    []byte

	rec    recorder.Record
	argbuf []int64

	stats cursorStats
	err   error
	done  bool
}

// Cursor returns a strict cursor: any torn tail or corrupt block fails the
// walk (after yielding the valid prefix).
func (r *Reader) Cursor() *Cursor { return r.newCursor(false) }

// lenientCursor returns a salvaging cursor: with an intact footer it skips
// individually corrupt blocks and keeps decoding (refs are absolute, blocks
// are time-self-contained); without one it keeps the longest valid prefix.
// Err still reports what was lost; decodeStats says how much survived.
func (r *Reader) lenientCursor() *Cursor { return r.newCursor(true) }

func (r *Reader) newCursor(lenient bool) *Cursor {
	c := &Cursor{r: r, lenient: lenient, off: r.blockOff}
	c.rec.Rank = int32(r.rank)
	if r.dictOff >= 0 {
		c.dict = r.dict
	} else {
		c.incr = true
	}
	return c
}

// Next advances to the next record, returning false at the end of the walk.
// After a false return, Err distinguishes a clean end (nil) from a torn or
// corrupt stream.
func (c *Cursor) Next() bool {
	for {
		if c.done {
			return false
		}
		for c.i >= c.n {
			if !c.nextBlock() {
				return false
			}
		}
		if c.decodeRecord() {
			c.i++
			c.stats.Records++
			return true
		}
		// decodeRecord set a corruption error for the current block; in a
		// lenient footer-mode walk later blocks are independent (absolute
		// dictionary refs, block-local timestamps), so drop the rest of this
		// block and resync at the next frame.
		if c.lenient && !c.incr {
			c.err = nil
			c.done = false
			c.stats.Skipped++
			c.n, c.i = 0, 0
			continue
		}
		c.done = true
		return false
	}
}

// Record returns the current record. The pointee (and its Args) are
// overwritten by the next call to Next.
func (c *Cursor) Record() *recorder.Record { return &c.rec }

// Err returns nil after a clean walk, a recorder.TruncatedError (wrapping
// recorder.ErrTruncated) for a torn tail, or a *corruptError for damage.
func (c *Cursor) Err() error { return c.err }

// decodeStats returns the walk's per-block accounting so far.
func (c *Cursor) decodeStats() cursorStats { return c.stats }

func (c *Cursor) fail(err error) bool {
	c.err = err
	c.done = true
	return false
}

func (c *Cursor) failTorn() bool {
	return c.fail(&recorder.TruncatedError{Declared: c.r.declared, Decoded: c.stats.Records})
}

func (c *Cursor) failCorrupt(block int, format string, a ...any) bool {
	return c.fail(&corruptError{Block: block, Reason: fmt.Sprintf(format, a...)})
}

// nextBlock advances the cursor to the next data block, handling stream end.
// It returns true with a loaded block, or false with done set (and err set
// unless the stream ended cleanly).
func (c *Cursor) nextBlock() bool {
	data := c.r.data
	for {
		// Footer mode: data frames occupy exactly [blockOff, dictOff).
		if !c.incr && c.off >= c.r.dictOff {
			if c.off != c.r.dictOff {
				return c.failCorrupt(c.block-1, "frame overruns the dictionary at %d", c.r.dictOff)
			}
			return c.finish()
		}
		if c.incr && c.off == len(data) {
			return c.failTorn()
		}
		if c.off+colwire.FrameHdrLen > len(data) {
			return c.failTorn()
		}
		kind := data[c.off]
		plen := int(binary.LittleEndian.Uint32(data[c.off+1:]))
		wantCRC := binary.LittleEndian.Uint32(data[c.off+5:])
		if plen > colwire.MaxPayload {
			return c.failCorrupt(c.block, "payload length %d exceeds %d", plen, colwire.MaxPayload)
		}
		start := c.off + colwire.FrameHdrLen
		if start+plen > len(data) {
			return c.failTorn()
		}
		payload := data[start : start+plen]
		block := c.block
		c.off = start + plen
		c.block++
		switch kind {
		case colwire.KindDict:
			// Incremental mode only (footer mode never reaches a dict frame):
			// the trailer was damaged but the dictionary survived. All data
			// frames precede it, so a count match means a complete walk.
			if crc32.Checksum(payload, colwire.Castagnoli) != wantCRC {
				return c.failCorrupt(block, "dictionary CRC mismatch")
			}
			return c.finish()
		case colwire.KindData:
			if crc32.Checksum(payload, colwire.Castagnoli) != wantCRC {
				if c.skippable(block, "CRC mismatch") {
					continue
				}
				return false
			}
			if !c.loadBlock(block, payload) {
				// loadBlock failures are all corruptError; a lenient
				// footer-mode walk resyncs at the next frame.
				if c.lenient && !c.incr {
					c.err = nil
					c.done = false
					c.stats.Skipped++
					continue
				}
				return false
			}
			blocksDecoded.Inc()
			c.stats.Blocks++
			return true
		default:
			if c.skippable(block, "unknown frame kind") {
				continue
			}
			return false
		}
	}
}

// skippable records a corrupt frame and reports whether the walk may hop
// over it: only a lenient cursor with an intact footer can, because only
// then are later blocks self-describing (absolute dictionary refs) and the
// frame length trustworthy enough to bounds-checked resync.
func (c *Cursor) skippable(block int, reason string) bool {
	if c.lenient && !c.incr {
		c.stats.Skipped++
		return true
	}
	c.failCorrupt(block, "%s", reason)
	return false
}

// finish validates the walk's end: every declared record must have been
// yielded, otherwise blocks went missing mid-stream.
func (c *Cursor) finish() bool {
	c.done = true
	if uint64(c.stats.Records) != c.r.declared && c.err == nil {
		if c.stats.Skipped > 0 {
			// Lenient walk dropped blocks; the shortfall is accounted by the
			// caller against declaredRecords, not an error here.
			return false
		}
		c.err = &recorder.TruncatedError{Declared: c.r.declared, Decoded: c.stats.Records}
	}
	return false
}

// loadBlock parses a CRC-valid data payload into column slices. A false
// return with c.err == *corruptError means the payload was malformed.
func (c *Cursor) loadBlock(block int, payload []byte) bool {
	off := 0
	count, off, ok := uvarintAt(payload, off)
	if !ok || count == 0 || count > colwire.MaxRecords {
		return c.failCorrupt(block, "bad record count")
	}
	if uint64(c.stats.Records)+count > c.r.declared {
		// More records than the header declared: the header and blocks
		// disagree, so the stream is forged or damaged beyond trusting.
		return c.failCorrupt(block, "blocks exceed declared record count")
	}
	nnew, off, ok := uvarintAt(payload, off)
	if !ok || nnew > count*2 {
		return c.failCorrupt(block, "bad dictionary delta count")
	}
	if c.incr {
		// Rebuild the dictionary from the delta; parseDict wants the count
		// prefix, so hand it the section starting at the count.
		dict, pok := parseDictN(payload, &off, nnew, c.dict)
		if !pok {
			return c.failCorrupt(block, "bad dictionary delta")
		}
		c.dict = dict
	} else {
		for i := uint64(0); i < nnew; i++ {
			n, noff, ok := uvarintAt(payload, off)
			if !ok || n > colwire.MaxString || noff+int(n) > len(payload) {
				return c.failCorrupt(block, "bad dictionary delta")
			}
			off = noff + int(n)
		}
	}
	var segs [colwire.Segments][]byte
	for s := 0; s < colwire.Segments; s++ {
		slen, noff, ok := uvarintAt(payload, off)
		if !ok || noff+int(slen) > len(payload) {
			return c.failCorrupt(block, "bad column segment %d", s)
		}
		segs[s] = payload[noff : noff+int(slen)]
		off = noff + int(slen)
	}
	if off != len(payload) {
		return c.failCorrupt(block, "trailing bytes after columns")
	}
	if uint64(len(segs[colwire.ColLayers])) != count {
		return c.failCorrupt(block, "layer column length mismatch")
	}
	c.n, c.i = int(count), 0
	c.layers = segs[colwire.ColLayers]
	c.funcs = segs[colwire.ColFuncs]
	c.tstarts = segs[colwire.ColTStarts]
	c.durs = segs[colwire.ColDurs]
	c.paths = segs[colwire.ColPaths]
	c.paths2 = segs[colwire.ColPaths2]
	c.nargs = segs[colwire.ColNArgs]
	c.args = segs[colwire.ColArgs]
	return true
}

// parseDictN appends n delta strings (uvarint len + bytes each) from
// payload at *off to dst, advancing *off.
func parseDictN(payload []byte, off *int, n uint64, dst []string) ([]string, bool) {
	o := *off
	for i := uint64(0); i < n; i++ {
		l, noff, ok := uvarintAt(payload, o)
		if !ok || l > colwire.MaxString || noff+int(l) > len(payload) {
			return dst, false
		}
		dst = append(dst, string(payload[noff:noff+int(l)]))
		o = noff + int(l)
	}
	*off = o
	return dst, true
}

// decodeRecord fills c.rec from the current block's columns. A false return
// set a corruption error on the current block.
func (c *Cursor) decodeRecord() bool {
	block := c.block - 1
	layer := c.layers[c.i] // length validated against count in loadBlock
	fn, ok := takeUvarint(&c.funcs)
	if !ok {
		return c.failCorrupt(block, "funcs column short")
	}
	var tstart uint64
	if c.i == 0 {
		tstart, ok = takeUvarint(&c.tstarts)
	} else {
		var d int64
		d, ok = takeVarint(&c.tstarts)
		tstart = c.prevT + uint64(d)
	}
	if !ok {
		return c.failCorrupt(block, "tstarts column short")
	}
	c.prevT = tstart
	dur, ok := takeUvarint(&c.durs)
	if !ok {
		return c.failCorrupt(block, "durs column short")
	}
	tend := tstart + dur
	if tend < tstart {
		return c.failCorrupt(block, "duration overflows")
	}
	pref, ok := takeUvarint(&c.paths)
	if !ok {
		return c.failCorrupt(block, "paths column short")
	}
	path, ok := c.resolve(pref)
	if !ok {
		return c.failCorrupt(block, "path ref %d out of dictionary (%d entries)", pref, len(c.dict))
	}
	pref2, ok := takeUvarint(&c.paths2)
	if !ok {
		return c.failCorrupt(block, "paths2 column short")
	}
	path2, ok := c.resolve(pref2)
	if !ok {
		return c.failCorrupt(block, "path2 ref %d out of dictionary (%d entries)", pref2, len(c.dict))
	}
	nargs, ok := takeUvarint(&c.nargs)
	if !ok {
		return c.failCorrupt(block, "nargs column short")
	}
	if nargs > recorder.MaxArgs {
		return c.failCorrupt(block, "%d args too many", nargs)
	}
	rec := &c.rec
	rec.Layer = recorder.Layer(layer)
	rec.Func = recorder.Func(fn)
	rec.TStart = tstart
	rec.TEnd = tend
	rec.Path = path
	rec.Path2 = path2
	if nargs == 0 {
		rec.Args = nil
	} else {
		if cap(c.argbuf) < int(nargs) {
			c.argbuf = make([]int64, nargs)
		}
		rec.Args = c.argbuf[:nargs]
		for j := range rec.Args {
			a, ok := takeVarint(&c.args)
			if !ok {
				return c.failCorrupt(block, "args column short")
			}
			rec.Args[j] = a
		}
	}
	return true
}

// resolve maps a wire path ref (0 = none, k >= 1 = dict[k-1]) to its string.
func (c *Cursor) resolve(ref uint64) (string, bool) {
	if ref == 0 {
		return "", true
	}
	if ref > uint64(len(c.dict)) {
		return "", false
	}
	return c.dict[ref-1], true
}

// Replay walks the whole stream with a strict cursor into a rank log, as
// the running rank emitted it: the decoded rank of a trace. On error the
// log holds the valid prefix. The log is sized once: entries from the
// header's record count, clamped to the stream's length in bytes (a record
// costs at least two column bytes), so a forged count cannot force a large
// allocation; argument bytes from the stream's length, which holds them as
// the same varints.
func (r *Reader) Replay() (*recorder.RankTracer, error) {
	rt := recorder.NewRankTracerSized(r.rank, int(min(r.declared, uint64(len(r.data)))), len(r.data))
	c := r.Cursor()
	for c.Next() {
		rt.Emit(c.rec, c.rec.Args)
	}
	return rt, c.Err()
}

// uvarintAt decodes a uvarint from data at off, returning the value, the
// new offset, and whether the read stayed in bounds.
func uvarintAt(data []byte, off int) (uint64, int, bool) {
	if off < 0 || off > len(data) {
		return 0, 0, false
	}
	v, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return 0, 0, false
	}
	return v, off + n, true
}

// takeUvarint consumes a uvarint from the front of a column slice. It is
// binary.Uvarint (same overflow and short-buffer failures) written so that
// the compiler inlines it into decodeRecord: with ~7 column values per
// record, the call overhead was a tenth of a scan's CPU.
func takeUvarint(col *[]byte) (uint64, bool) {
	c := *col
	var x uint64
	var s uint
	for i, b := range c {
		if i == binary.MaxVarintLen64 {
			return 0, false // overflow
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, false // overflow
			}
			*col = c[i+1:]
			return x | uint64(b)<<s, true
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, false // short
}

// takeVarint consumes a zig-zag varint from the front of a column slice,
// as binary.Varint decodes it.
func takeVarint(col *[]byte) (int64, bool) {
	ux, ok := takeUvarint(col)
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, ok
}
