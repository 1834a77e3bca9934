// Package colfmt is the columnar on-disk trace format (SEMFSCOL1), the
// scalable counterpart to the record-framed SEMFSTR1 streams in package
// recorder. Real HPC tracing produces hundreds of millions of operations per
// run (Recorder, IPDPSW 2020); loading such traces through a heap-per-record
// decoder dominates analysis time and memory. Columnar streams fix both
// ends: the encoder stores each rank's records as column blocks —
// delta-encoded timestamps, dictionary-coded paths, packed args — and the
// decoder yields records zero-copy from the (memory-mapped) column bytes
// through a cursor, which directory loads walk to materialize each rank.
//
// Stream layout, one file per rank:
//
//	header:  magic "SEMFSCOL1" (9 bytes)
//	         uvarint rank
//	         uvarint declared record count   (exact salvage accounting)
//	blocks:  data blocks, then one dictionary block, each framed as
//	         u8 kind | u32le payload length | u32le CRC-32C | payload
//	trailer: u64le dictionary-block offset | u64le record count |
//	         end magic "SEMFSCE1"
//
// Data block payload (kind 1), holding up to BlockRecords records:
//
//	uvarint count                       records in this block
//	uvarint new                         dictionary entries first used here
//	new × (uvarint len | bytes)         incremental dictionary delta
//	8 column segments, each prefixed with its uvarint byte length:
//	  layers   count × u8
//	  funcs    count × uvarint
//	  tstarts  first uvarint absolute, rest varint delta from predecessor
//	  durs     count × uvarint          (TEnd − TStart)
//	  paths    count × uvarint          (0 = none, k ≥ 1 = dict[k−1])
//	  paths2   count × uvarint
//	  nargs    count × uvarint
//	  args     Σ nargs × varint
//
// Dictionary block payload (kind 2): uvarint count + count × (uvarint len |
// bytes), in first-use order. The dictionary therefore exists twice: the
// footer copy is the fast path (one read, each string interned once, any
// block decodable immediately), and the per-block deltas are the salvage
// path — a torn tail that takes the footer with it still decodes every
// intact data block by replaying the deltas in order. Every frame carries
// its own length and CRC-32C, so a torn or corrupt tail salvages per-block
// instead of per-stream: the valid block prefix is always recoverable.
package colfmt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/recorder"
)

// Magic identifies a columnar rank stream; recorder's dir loaders sniff it
// against the v1 traceMagic.
const Magic = "SEMFSCOL1"

// endMagic terminates an intact stream; its absence marks a torn tail.
const endMagic = "SEMFSCE1"

// Frame kinds.
const (
	kindData = 1
	kindDict = 2
)

// Wire limits, mirroring the v1 decoder's forged-header bounds.
const (
	maxRank      = 1 << 20
	maxRecords   = 1 << 30
	maxPayload   = 1 << 28
	maxString    = 1 << 20
	maxArgs      = 64
	frameHdrLen  = 1 + 4 + 4 // kind + length + crc
	trailerLen   = 8 + 8 + len(endMagic)
	streamHdrMin = len(Magic) + 2 // magic + at least 1 byte rank + 1 byte count
	defaultBlock = 4096
	colSegments  = 8
)

// castagnoli is the CRC-32C table every frame checksum uses — the same
// polynomial the ckpt journal and WAL frames use.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// EncodeOptions tunes the encoder.
type EncodeOptions struct {
	// BlockRecords is the record count per data block (default 4096). Small
	// blocks salvage at finer grain; large blocks amortize framing better.
	BlockRecords int
}

func (o EncodeOptions) blockRecords() int {
	if o.BlockRecords <= 0 {
		return defaultBlock
	}
	return o.BlockRecords
}

// streamEncoder carries the per-stream dictionary and the reusable column
// buffers across blocks.
type streamEncoder struct {
	w       *countingWriter
	dict    map[string]uint64 // string -> index (0-based)
	order   []string          // first-use order
	newStrs []string          // strings first used in the current block
	cols    [colSegments][]byte
	payload []byte
	scratch [binary.MaxVarintLen64]byte
	prevT   uint64
	hits    int64 // records whose path was already in the dictionary
}

// countingWriter tracks the absolute offset so the trailer can point at the
// dictionary block.
type countingWriter struct {
	w   *bufio.Writer
	off uint64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.off += uint64(n)
	return n, err
}

// EncodeStream writes one rank's records as a columnar stream. The input
// slice is not retained.
func EncodeStream(w io.Writer, rank int, records []recorder.Record, opts EncodeOptions) error {
	if rank < 0 || rank >= maxRank {
		return fmt.Errorf("colfmt: rank %d out of range", rank)
	}
	enc := &streamEncoder{
		w:    &countingWriter{w: bufio.NewWriterSize(w, 1<<16)},
		dict: make(map[string]uint64),
	}
	if _, err := enc.w.Write([]byte(Magic)); err != nil {
		return err
	}
	if err := enc.writeUvarint(enc.w, uint64(rank)); err != nil {
		return err
	}
	if err := enc.writeUvarint(enc.w, uint64(len(records))); err != nil {
		return err
	}
	per := opts.blockRecords()
	for start := 0; start < len(records); start += per {
		end := start + per
		if end > len(records) {
			end = len(records)
		}
		if err := enc.writeDataBlock(records[start:end]); err != nil {
			return err
		}
	}
	dictOff := enc.w.off
	if err := enc.writeDictBlock(); err != nil {
		return err
	}
	var trailer [trailerLen]byte
	binary.LittleEndian.PutUint64(trailer[0:], dictOff)
	binary.LittleEndian.PutUint64(trailer[8:], uint64(len(records)))
	copy(trailer[16:], endMagic)
	if _, err := enc.w.Write(trailer[:]); err != nil {
		return err
	}
	blocksEncoded.Add(int64((len(records)+per-1)/per) + 1)
	dictEntries.Add(int64(len(enc.order)))
	dictHits.Add(enc.hits)
	return enc.w.w.Flush()
}

func (enc *streamEncoder) writeUvarint(w io.Writer, v uint64) error {
	n := binary.PutUvarint(enc.scratch[:], v)
	_, err := w.Write(enc.scratch[:n])
	return err
}

// ref returns the wire path reference for s (0 = none), interning new
// strings into the dictionary and the current block's delta section.
func (enc *streamEncoder) ref(s string) uint64 {
	if s == "" {
		return 0
	}
	if idx, ok := enc.dict[s]; ok {
		enc.hits++
		return idx + 1
	}
	idx := uint64(len(enc.order))
	enc.dict[s] = idx
	enc.order = append(enc.order, s)
	enc.newStrs = append(enc.newStrs, s)
	return idx + 1
}

// column append helpers over the reusable buffers.
func (enc *streamEncoder) putU8(col int, v byte) { enc.cols[col] = append(enc.cols[col], v) }
func (enc *streamEncoder) putUvarint(col int, v uint64) {
	n := binary.PutUvarint(enc.scratch[:], v)
	enc.cols[col] = append(enc.cols[col], enc.scratch[:n]...)
}
func (enc *streamEncoder) putVarint(col int, v int64) {
	n := binary.PutVarint(enc.scratch[:], v)
	enc.cols[col] = append(enc.cols[col], enc.scratch[:n]...)
}

// Column indices into streamEncoder.cols, in wire order.
const (
	colLayers = iota
	colFuncs
	colTStarts
	colDurs
	colPaths
	colPaths2
	colNArgs
	colArgs
)

func (enc *streamEncoder) writeDataBlock(records []recorder.Record) error {
	for i := range enc.cols {
		enc.cols[i] = enc.cols[i][:0]
	}
	enc.newStrs = enc.newStrs[:0]
	for i := range records {
		r := &records[i]
		if r.TEnd < r.TStart {
			return fmt.Errorf("colfmt: record has TEnd < TStart")
		}
		if len(r.Args) > maxArgs {
			return fmt.Errorf("colfmt: record has %d args (max %d)", len(r.Args), maxArgs)
		}
		enc.putU8(colLayers, byte(r.Layer))
		enc.putUvarint(colFuncs, uint64(r.Func))
		if i == 0 {
			enc.putUvarint(colTStarts, r.TStart)
		} else {
			// Two's-complement delta round-trips any u64 pair; sorted
			// streams make it a one-byte varint almost always.
			enc.putVarint(colTStarts, int64(r.TStart-enc.prevT))
		}
		enc.prevT = r.TStart
		enc.putUvarint(colDurs, r.TEnd-r.TStart)
		enc.putUvarint(colPaths, enc.ref(r.Path))
		enc.putUvarint(colPaths2, enc.ref(r.Path2))
		enc.putUvarint(colNArgs, uint64(len(r.Args)))
		for _, a := range r.Args {
			enc.putVarint(colArgs, a)
		}
	}
	enc.payload = enc.payload[:0]
	enc.payload = binary.AppendUvarint(enc.payload, uint64(len(records)))
	enc.payload = binary.AppendUvarint(enc.payload, uint64(len(enc.newStrs)))
	for _, s := range enc.newStrs {
		enc.payload = binary.AppendUvarint(enc.payload, uint64(len(s)))
		enc.payload = append(enc.payload, s...)
	}
	for _, col := range enc.cols {
		enc.payload = binary.AppendUvarint(enc.payload, uint64(len(col)))
		enc.payload = append(enc.payload, col...)
	}
	return enc.writeFrame(kindData, enc.payload)
}

func (enc *streamEncoder) writeDictBlock() error {
	enc.payload = enc.payload[:0]
	enc.payload = binary.AppendUvarint(enc.payload, uint64(len(enc.order)))
	for _, s := range enc.order {
		enc.payload = binary.AppendUvarint(enc.payload, uint64(len(s)))
		enc.payload = append(enc.payload, s...)
	}
	return enc.writeFrame(kindDict, enc.payload)
}

func (enc *streamEncoder) writeFrame(kind byte, payload []byte) error {
	if len(payload) > maxPayload {
		return fmt.Errorf("colfmt: block payload %d exceeds %d bytes", len(payload), maxPayload)
	}
	var hdr [frameHdrLen]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:], crc32.Checksum(payload, castagnoli))
	if _, err := enc.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := enc.w.Write(payload)
	return err
}
