// Package frame is the one CRC-framed append-log codec behind the repo's
// durable logs: the ckpt journal and the per-rank WAL. A frame is
//
//	magic (4 bytes) | payload length uint32 LE | CRC-32C(payload) uint32 LE | payload
//
// Commit discipline is the paper's, applied to the repo's own state: a
// frame counts once the fsync covering it returns, so after a crash only the
// tail frame can be damaged. Scan keeps the longest valid prefix and
// measures the rest; the caller truncates to Stats.Good before appending.
// The package is stdlib-only so every durable layer can use it.
package frame

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"
	"slices"
)

// HeaderLen is the size of a frame header: magic + length + CRC.
const HeaderLen = 12

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Append appends one frame carrying payload to dst and returns the extended
// slice. magic must be 4 bytes.
func Append(dst []byte, magic string, payload []byte) []byte {
	dst = append(dst, magic...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// Stats reports what a Scan kept and what it cut.
type Stats struct {
	Records   int   // frames visited and accepted
	Dropped   int   // damaged or rejected tail frames (0 or 1: the scan stops at the first)
	Good      int64 // offset just past the last accepted frame
	TailBytes int64 // bytes from Good to the end of the stream
}

// Scan reads frames from r in order, handing each intact payload to visit,
// and stops at the first frame that is torn, fails its CRC, declares a
// length over maxLen, or that visit rejects (returns false). That frame and
// every byte after it are tail damage: counted in Dropped and TailBytes,
// never an error. The error result is for I/O failure only.
//
// The payload slice is reused between frames; visit must copy what it
// keeps. A payload is read as its bytes arrive, so a forged length costs at
// most the bytes actually present, never the declared size.
func Scan(r io.Reader, magic string, maxLen int, visit func(payload []byte) bool) (Stats, error) {
	br := bufio.NewReader(r)
	var (
		st      Stats
		n       int64 // bytes consumed
		hdr     [HeaderLen]byte
		payload []byte
	)
	for {
		m, err := io.ReadFull(br, hdr[:])
		n += int64(m)
		if err == io.EOF {
			break // clean end on a frame boundary
		}
		if err != nil && err != io.ErrUnexpectedEOF {
			return st, err
		}
		plen := binary.LittleEndian.Uint32(hdr[4:])
		if err != nil || string(hdr[:4]) != magic || uint64(plen) > uint64(maxLen) {
			st.Dropped++ // torn header, foreign bytes or a forged length
			break
		}
		payload, err = readPayload(br, payload[:0], int(plen))
		n += int64(len(payload))
		if err != nil {
			if err != io.EOF && err != io.ErrUnexpectedEOF {
				return st, err
			}
			st.Dropped++ // torn payload
			break
		}
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[8:]) || !visit(payload) {
			st.Dropped++ // corrupt or rejected: everything after is untrusted
			break
		}
		st.Records++
		st.Good = n
	}
	// Whatever follows the last accepted frame is tail damage: drain it so
	// the count covers unread bytes too.
	m, err := io.Copy(io.Discard, br)
	n += m
	st.TailBytes = n - st.Good
	return st, err
}

// readPayload reads size bytes into buf, growing it no faster than the
// bytes arrive. On error it returns the bytes read so far.
func readPayload(r io.Reader, buf []byte, size int) ([]byte, error) {
	for len(buf) < size {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(size-len(buf), max(len(buf), 4096)))
		}
		m, err := io.ReadFull(r, buf[len(buf):min(size, cap(buf))])
		buf = buf[:len(buf)+m]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}
