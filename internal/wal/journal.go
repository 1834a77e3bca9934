package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/frame"
	"repro/internal/storage"
)

// On-disk record framing for the host-side write-ahead log: one
// internal/frame frame per record, magic "WALR", so a crash can damage only
// the tail frame, which salvage measures and truncates. The payload encodes one
// acknowledged write:
//
//	uvarint len(path) | path | uvarint off | uvarint now | data
//
// (data length is the payload remainder — no separate length field).
// Records are appended then fsync'd before the write is acknowledged, so
// after a crash at most the final record is torn; recovery keeps every
// complete record and truncates the tail.
const (
	recMagic   = "WALR"
	maxPayload = 1 << 30
)

// logRecord is one acknowledged-but-possibly-undrained write as persisted in a
// per-rank log file.
type logRecord struct {
	Path string
	Off  int64
	Now  uint64
	Data []byte
}

func encodePayload(rec logRecord) ([]byte, error) {
	if rec.Off < 0 {
		return nil, fmt.Errorf("wal: negative offset %d", rec.Off)
	}
	buf := make([]byte, 0, 2*binary.MaxVarintLen64+binary.MaxVarintLen64+len(rec.Path)+len(rec.Data))
	buf = binary.AppendUvarint(buf, uint64(len(rec.Path)))
	buf = append(buf, rec.Path...)
	buf = binary.AppendUvarint(buf, uint64(rec.Off))
	buf = binary.AppendUvarint(buf, rec.Now)
	buf = append(buf, rec.Data...)
	if len(buf) > maxPayload {
		return nil, fmt.Errorf("wal: record payload %d exceeds %d", len(buf), maxPayload)
	}
	return buf, nil
}

func decodePayload(payload []byte) (logRecord, error) {
	plen, n := binary.Uvarint(payload)
	if n <= 0 || plen > uint64(len(payload)-n) {
		return logRecord{}, errors.New("wal: corrupt path length")
	}
	rest := payload[n:]
	path := string(rest[:plen])
	rest = rest[plen:]
	off, n := binary.Uvarint(rest)
	if n <= 0 {
		return logRecord{}, errors.New("wal: corrupt offset")
	}
	rest = rest[n:]
	now, n := binary.Uvarint(rest)
	if n <= 0 {
		return logRecord{}, errors.New("wal: corrupt timestamp")
	}
	data := rest[n:]
	return logRecord{Path: path, Off: int64(off), Now: now, Data: data}, nil
}

// appendRecord frames one record into a right-sized buffer and appends it
// (fsync'd unless noFsync) through storage.AppendFrame, whose
// wal.append.{begin,torn,before-fsync,after-fsync} kill points bracket the
// durability boundary — a write is acked iff the crash lands after
// wal.append.after-fsync.
func appendRecord(f storage.File, rec logRecord, noFsync bool) (int64, error) {
	payload, err := encodePayload(rec)
	if err != nil {
		return 0, err
	}
	buf := frame.Append(make([]byte, 0, frame.HeaderLen+len(payload)), recMagic, payload)
	if err := storage.AppendFrame(f, buf, "wal.append", !noFsync); err != nil {
		return 0, err
	}
	return int64(len(buf)), nil
}

// recordVisitor returns the frame visitor that decodes each payload,
// appending the record to *recs unless recs is nil. A payload that does not
// decode ends the scan like any other tail damage.
func recordVisitor(recs *[]logRecord) func([]byte) bool {
	return func(p []byte) bool {
		rec, err := decodePayload(p)
		if err != nil {
			return false
		}
		if recs != nil {
			rec.Data = append([]byte(nil), rec.Data...) // the scan reuses p
			*recs = append(*recs, rec)
		}
		return true
	}
}

// recoverRecords scans a log stream, returning every complete record in
// append order plus the scan stats, whose Good is the offset the caller
// truncates to before resuming appends. The scan stops at the first torn
// or corrupt frame: anything after it was never acknowledged.
func recoverRecords(r io.Reader) ([]logRecord, frame.Stats, error) {
	var recs []logRecord
	st, err := frame.Scan(r, recMagic, maxPayload, recordVisitor(&recs))
	return recs, st, err
}
