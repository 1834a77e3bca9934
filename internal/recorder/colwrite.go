package recorder

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/obs"
	"repro/internal/recorder/colwire"
)

// The columnar stream writer: the one encoder of the SEMFSCOL1 format,
// whose wire is package colwire's and whose decoder is package colfmt. It
// writes a rank's log straight from its entries: the args are already the
// args column's varints and path IDs already follow first use, the
// dictionary's order, so a block is built by appending and copying, with
// no record and no map in between.

// Columnar codec telemetry on the process-wide registry (DESIGN.md §9
// naming: recorder.colfmt.*): how many blocks the writer framed, how many
// dictionary entries it wrote and how many path references hit an entry
// already written.
var (
	blocksEncoded = obs.Default().Counter("recorder.colfmt.blocks_encoded")
	dictEntries   = obs.Default().Counter("recorder.colfmt.dict_entries")
	dictHits      = obs.Default().Counter("recorder.colfmt.dict_hits")
)

// streamWriter carries the buffered writer and the column and payload
// buffers of a stream; writing streams one after another reuses them.
type streamWriter struct {
	w       *bufio.Writer
	off     uint64 // bytes written so far, for the trailer's dictionary offset
	cols    [colwire.Segments][]byte
	payload []byte
}

func (sw *streamWriter) write(p []byte) error {
	n, err := sw.w.Write(p)
	sw.off += uint64(n)
	return err
}

// A StreamWriter writes trace rank streams one after another, reusing one
// 64 KiB buffered writer and the column buffers from each stream to the
// next. The zero value is ready to use; it is not safe for concurrent use.
type StreamWriter struct{ sw streamWriter }

// WriteStream writes rank's records of t to w as one columnar stream: the
// bytes Trace.WriteStream writes.
func (s *StreamWriter) WriteStream(w io.Writer, t *Trace, rank int) error {
	return s.sw.stream(w, rank, t.PerRank[rank], t.tables(rank), 0)
}

// stream writes one rank's entries to w as a columnar stream of per
// records per data block (colwire.BlockRecords when per <= 0).
func (sw *streamWriter) stream(w io.Writer, rank int, es []Entry, tabs *rankTables, per int) error {
	if rank < 0 || rank >= colwire.MaxRank {
		return fmt.Errorf("colfmt: rank %d out of range", rank)
	}
	if per <= 0 {
		per = colwire.BlockRecords
	}
	if sw.w == nil {
		sw.w = bufio.NewWriterSize(w, 1<<16)
	} else {
		sw.w.Reset(w)
	}
	sw.off = 0
	hdr := binary.AppendUvarint([]byte(colwire.Magic), uint64(rank))
	hdr = binary.AppendUvarint(hdr, uint64(len(es)))
	if err := sw.write(hdr); err != nil {
		return err
	}
	seen := 0 // dictionary entries written so far
	var hits int64
	ref := func(id uint32) (uint64, error) {
		switch {
		case id == 0:
		case int(id) <= seen:
			hits++
		case int(id) == seen+1:
			seen++
		default:
			return 0, errors.New("colfmt: path table out of first-use order")
		}
		return uint64(id), nil
	}
	var prevT uint64
	for start := 0; start < len(es); start += per {
		block := es[start:min(start+per, len(es))]
		for i := range sw.cols {
			sw.cols[i] = sw.cols[i][:0]
		}
		newFrom := seen
		for i := range block {
			e := &block[i]
			if e.TEnd < e.TStart {
				return fmt.Errorf("colfmt: record has TEnd < TStart")
			}
			c := &sw.cols
			c[colwire.ColLayers] = append(c[colwire.ColLayers], byte(e.Layer))
			c[colwire.ColFuncs] = binary.AppendUvarint(c[colwire.ColFuncs], uint64(e.Func))
			if i == 0 {
				c[colwire.ColTStarts] = binary.AppendUvarint(c[colwire.ColTStarts], e.TStart)
			} else {
				// Two's-complement delta round-trips any u64 pair; sorted
				// streams make it a one-byte varint almost always.
				c[colwire.ColTStarts] = binary.AppendVarint(c[colwire.ColTStarts], int64(e.TStart-prevT))
			}
			prevT = e.TStart
			c[colwire.ColDurs] = binary.AppendUvarint(c[colwire.ColDurs], e.TEnd-e.TStart)
			p, err := ref(e.path)
			if err != nil {
				return err
			}
			c[colwire.ColPaths] = binary.AppendUvarint(c[colwire.ColPaths], p)
			if p, err = ref(e.path2); err != nil {
				return err
			}
			c[colwire.ColPaths2] = binary.AppendUvarint(c[colwire.ColPaths2], p)
			c[colwire.ColNArgs] = append(c[colwire.ColNArgs], e.nargs) // < 0x80: a one-byte uvarint
			c[colwire.ColArgs] = append(c[colwire.ColArgs], argBytes(tabs.args[e.args:], int(e.nargs))...)
		}
		sw.payload = binary.AppendUvarint(sw.payload[:0], uint64(len(block)))
		sw.payload = appendStrings(sw.payload, tabs.paths[newFrom:seen])
		for _, col := range sw.cols {
			sw.payload = binary.AppendUvarint(sw.payload, uint64(len(col)))
			sw.payload = append(sw.payload, col...)
		}
		if err := sw.frame(colwire.KindData, sw.payload); err != nil {
			return err
		}
	}
	dictOff := sw.off
	sw.payload = appendStrings(sw.payload[:0], tabs.paths[:seen])
	if err := sw.frame(colwire.KindDict, sw.payload); err != nil {
		return err
	}
	trailer := binary.LittleEndian.AppendUint64(nil, dictOff)
	trailer = binary.LittleEndian.AppendUint64(trailer, uint64(len(es)))
	if err := sw.write(append(trailer, colwire.EndMagic...)); err != nil {
		return err
	}
	blocksEncoded.Add(int64((len(es)+per-1)/per) + 1)
	dictEntries.Add(int64(seen))
	dictHits.Add(hits)
	return sw.w.Flush()
}

// argBytes returns the prefix of b holding n varints.
func argBytes(b []byte, n int) []byte {
	end := 0
	for ; n > 0; n-- {
		for b[end] >= 0x80 {
			end++
		}
		end++
	}
	return b[:end]
}

// appendStrings appends a string table: uvarint count, then uvarint
// length and bytes per string.
func appendStrings(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// frame writes one block: u8 kind | u32le payload length | u32le CRC-32C |
// payload.
func (sw *streamWriter) frame(kind byte, payload []byte) error {
	if len(payload) > colwire.MaxPayload {
		return fmt.Errorf("colfmt: block payload %d exceeds %d bytes", len(payload), colwire.MaxPayload)
	}
	var hdr [9]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:], crc32.Checksum(payload, colwire.Castagnoli))
	if err := sw.write(hdr[:]); err != nil {
		return err
	}
	return sw.write(payload)
}
