package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"

	"repro/internal/harness"
	"repro/internal/recorder"
	"repro/internal/recorder/colfmt"
)

// Result codec: a completed harness.Result serialized for the journal. The
// encoding reuses the columnar per-rank trace streams (colfmt.EncodeStream),
// so a decoded result's trace is record-for-record identical to the one
// that ran — the property that lets a resumed sweep render byte-identical
// reports.
//
//	uvarint header length | header JSON {v, meta}
//	uvarint rank count
//	per rank: uvarint stream length | colfmt.EncodeStream bytes

// resultCodecVersion guards the blob layout inside journal records (the
// store's SchemaVersion guards the journal framing around them). Version 1
// held v1 record-framed rank streams; its entries no longer decode, so a
// resumed sweep re-runs them.
const resultCodecVersion = 2

type resultHeader struct {
	V    int           `json:"v"`
	Meta recorder.Meta `json:"meta"`
}

// EncodeResult serializes a successful result. Failed results are refused:
// the journal's contract is that a journaled configuration is complete and
// need never re-run.
func EncodeResult(res *harness.Result) ([]byte, error) {
	if res == nil || res.Trace == nil {
		return nil, fmt.Errorf("ckpt: refusing to journal a result with no trace")
	}
	if err := res.Err(); err != nil {
		return nil, fmt.Errorf("ckpt: refusing to journal a failed result: %w", err)
	}
	hdr, err := json.Marshal(resultHeader{V: resultCodecVersion, Meta: res.Trace.Meta})
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	var out bytes.Buffer
	var u [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(u[:], v)
		out.Write(u[:n])
	}
	putUvarint(uint64(len(hdr)))
	out.Write(hdr)
	putUvarint(uint64(len(res.Trace.PerRank)))
	var stream bytes.Buffer
	for rank, rs := range res.Trace.PerRank {
		stream.Reset()
		if err := colfmt.EncodeStream(&stream, rank, rs, colfmt.EncodeOptions{}); err != nil {
			return nil, fmt.Errorf("ckpt: encoding rank %d: %w", rank, err)
		}
		putUvarint(uint64(stream.Len()))
		out.Write(stream.Bytes())
	}
	return out.Bytes(), nil
}

// DecodeResult reconstructs a journaled result. The returned Result carries
// the full trace with Replayed set; it has no live file system and no rank
// errors (only successful runs are journaled).
func DecodeResult(b []byte) (*harness.Result, error) {
	br := bytes.NewReader(b)
	hlen, err := binary.ReadUvarint(br)
	if err != nil || hlen > uint64(br.Len()) {
		return nil, fmt.Errorf("ckpt: corrupt result header length")
	}
	hdr := make([]byte, hlen)
	if _, err := br.Read(hdr); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	var h resultHeader
	if err := json.Unmarshal(hdr, &h); err != nil {
		return nil, fmt.Errorf("ckpt: parsing result header: %w", err)
	}
	if h.V != resultCodecVersion {
		return nil, fmt.Errorf("ckpt: result codec version %d, want %d", h.V, resultCodecVersion)
	}
	nranks, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	// Every rank stream carries at least its length byte, so a count beyond
	// the remaining bytes is forged; checking it first bounds the allocation.
	if nranks > uint64(br.Len()) {
		return nil, fmt.Errorf("ckpt: result declares %d rank streams in %d bytes", nranks, br.Len())
	}
	if nranks != uint64(h.Meta.Ranks) {
		return nil, fmt.Errorf("ckpt: result has %d rank streams, meta declares %d", nranks, h.Meta.Ranks)
	}
	tr := &recorder.Trace{Meta: h.Meta, PerRank: make([][]recorder.Record, nranks)}
	for rank := uint64(0); rank < nranks; rank++ {
		slen, err := binary.ReadUvarint(br)
		if err != nil || slen > uint64(br.Len()) {
			return nil, fmt.Errorf("ckpt: corrupt stream length for rank %d", rank)
		}
		stream := make([]byte, slen)
		if _, err := br.Read(stream); err != nil {
			return nil, fmt.Errorf("ckpt: %w", err)
		}
		r, err := colfmt.NewReader(stream)
		if err != nil {
			return nil, fmt.Errorf("ckpt: decoding rank %d: %w", rank, err)
		}
		if r.Rank() != int(rank) {
			return nil, fmt.Errorf("ckpt: stream %d holds rank %d", rank, r.Rank())
		}
		if tr.PerRank[rank], err = r.Materialize(); err != nil {
			return nil, fmt.Errorf("ckpt: decoding rank %d: %w", rank, err)
		}
	}
	return &harness.Result{Trace: tr, Replayed: true}, nil
}

// AppendResult journals one completed configuration result under key.
func (s *Store) AppendResult(key string, res *harness.Result) error {
	blob, err := EncodeResult(res)
	if err != nil {
		return err
	}
	return s.Append(key, blob)
}

// LookupResult fetches and decodes a journaled result. ok reports a journal
// hit; a hit that fails to decode returns the error so callers can fall back
// to re-execution.
func (s *Store) LookupResult(key string) (*harness.Result, bool, error) {
	blob, ok := s.Lookup(key)
	if !ok {
		return nil, false, nil
	}
	res, err := DecodeResult(blob)
	if err != nil {
		return nil, true, err
	}
	return res, true, nil
}
