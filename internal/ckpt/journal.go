package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/frame"
	"repro/internal/storage"
)

// The journal is an append-only write-ahead log of completed work units:
// one internal/frame frame per unit, magic "CKJR", payload
//
//	uvarint key length | key | blob
//
// Commit discipline (the paper's commit-semantics model, applied to our own
// durability): a record exists once Append's fsync returns, and not before.
// Recovery scans records in order, keeping the last blob per key, and stops
// at the first torn or corrupt record — which, under append discipline, can
// only be the tail left by a crash mid-append. The tail is measured,
// reported, and truncated away so subsequent appends land on a clean
// boundary.
const (
	recMagic = "CKJR"
	// maxPayload bounds a declared payload length.
	maxPayload = 1 << 30
)

// RecoverStats reports what journal recovery salvaged and what it dropped:
// the frame scan's Records (including superseded keys), Dropped torn/corrupt
// tail records (0 or 1 under append discipline) and TailBytes truncated,
// plus the distinct Keys left after last-wins replay.
type RecoverStats struct {
	frame.Stats
	Keys int
}

// Degraded reports whether recovery had to cut anything.
func (s RecoverStats) Degraded() bool { return s.Dropped > 0 || s.TailBytes > 0 }

func (s RecoverStats) String() string {
	if !s.Degraded() {
		return fmt.Sprintf("journal: %d record(s), %d key(s), clean tail", s.Records, s.Keys)
	}
	return fmt.Sprintf("journal: %d record(s), %d key(s); salvage cut %d torn record(s), %d byte(s)",
		s.Records, s.Keys, s.Dropped, s.TailBytes)
}

// encodePayload renders key + blob as a record payload.
func encodePayload(key string, blob []byte) []byte {
	p := make([]byte, 0, binary.MaxVarintLen64+len(key)+len(blob))
	p = binary.AppendUvarint(p, uint64(len(key)))
	p = append(p, key...)
	return append(p, blob...)
}

// decodePayload splits a record payload back into key + blob.
func decodePayload(p []byte) (string, []byte, error) {
	klen, n := binary.Uvarint(p)
	if n <= 0 || klen > uint64(len(p)-n) {
		return "", nil, fmt.Errorf("ckpt: corrupt payload key length")
	}
	return string(p[n : n+int(klen)]), p[n+int(klen):], nil
}

// appendRecord writes one record to f and makes it durable through
// storage.AppendFrame, whose ckpt.append.{begin,torn,before-fsync,
// after-fsync} kill points bracket every stage of the commit.
func appendRecord(f storage.File, key string, blob []byte) (int64, error) {
	payload := encodePayload(key, blob)
	if len(payload) > maxPayload {
		return 0, fmt.Errorf("ckpt: record for %q is %d bytes, over the %d limit", key, len(payload), maxPayload)
	}
	rec := frame.Append(make([]byte, 0, frame.HeaderLen+len(payload)), recMagic, payload)
	if err := storage.AppendFrame(f, rec, "ckpt.append", true); err != nil {
		return 0, fmt.Errorf("ckpt: journal append: %w", err)
	}
	return int64(len(rec)), nil
}

// recoverJournal returns the frame visitor that replays journal records
// into byKey, last write wins. A payload that does not decode ends the scan
// like any other tail damage.
func recoverJournal(byKey map[string][]byte) func([]byte) bool {
	return func(p []byte) bool {
		key, blob, err := decodePayload(p)
		if err != nil {
			return false
		}
		byKey[key] = bytes.Clone(blob) // the scan reuses p
		return true
	}
}
