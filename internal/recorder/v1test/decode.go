package v1test

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/recorder"
)

// LoadDir loads a v1 trace directory, as SaveDir writes it, strictly: the
// first rank stream that fails to decode or holds another rank fails the
// load.
func LoadDir(dir string) (*recorder.Trace, error) {
	metaBytes, err := os.ReadFile(filepath.Join(dir, "trace.meta"))
	if err != nil {
		return nil, err
	}
	var meta recorder.Meta
	if err := json.Unmarshal(metaBytes, &meta); err != nil {
		return nil, fmt.Errorf("v1test: parsing trace.meta: %w", err)
	}
	tracers := make([]*recorder.RankTracer, meta.Ranks)
	for rank := range tracers {
		f, err := os.Open(filepath.Join(dir, recorder.RankFileName(rank)))
		if err != nil {
			return nil, err
		}
		got, recs, err := DecodeRankStream(f)
		f.Close()
		if err == nil && got != rank {
			err = fmt.Errorf("holds rank %d", got)
		}
		if err != nil {
			return nil, fmt.Errorf("v1test: reading rank %d: %w", rank, err)
		}
		tracers[rank] = recorder.NewRankTracer(rank)
		for i := range recs {
			tracers[rank].Emit(recs[i], recs[i].Args)
		}
	}
	return recorder.TraceOf(meta, tracers)
}

// truncated reports whether err is a short-read condition (the stream ended
// before the declared content did).
func truncated(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// decodeFail wraps a mid-stream decode error, converting short reads into a
// recorder.TruncatedError with the salvage position (and, once the header
// has been read, the declared record count) attached.
func decodeFail(declared uint64, nrecords int, err error) error {
	if truncated(err) {
		return &recorder.TruncatedError{Declared: declared, Decoded: nrecords}
	}
	return err
}

// DecodeRankStream reads one rank's v1 records from r. On a short read it
// returns every record decoded before the cut together with an error
// wrapping recorder.ErrTruncated; on other corruption it likewise returns
// the valid prefix alongside the error.
func DecodeRankStream(r io.Reader) (rank int, records []recorder.Record, err error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err = io.ReadFull(br, head); err != nil {
		return 0, nil, fmt.Errorf("v1test: reading magic: %w", decodeFail(0, 0, err))
	}
	if string(head) != magic {
		return 0, nil, fmt.Errorf("v1test: bad magic %q", head)
	}
	var strTable []string
	readStr := func() (string, error) {
		tag, err := binary.ReadUvarint(br)
		if err != nil {
			return "", err
		}
		switch {
		case tag == 0:
			return "", nil
		case tag == 1:
			n, err := binary.ReadUvarint(br)
			if err != nil {
				return "", err
			}
			if n > 1<<20 {
				return "", fmt.Errorf("v1test: string length %d too large", n)
			}
			b := make([]byte, n)
			if _, err := io.ReadFull(br, b); err != nil {
				return "", err
			}
			// Intern once: the table entry and the returned value share one
			// string, so each distinct path costs a single allocation.
			s := string(b)
			strTable = append(strTable, s)
			return s, nil
		default:
			idx := tag - 2
			if idx >= uint64(len(strTable)) {
				return "", fmt.Errorf("v1test: string ref %d out of table (%d entries)", idx, len(strTable))
			}
			return strTable[idx], nil
		}
	}

	urank, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, nil, decodeFail(0, 0, err)
	}
	if urank > 1<<20 {
		return 0, nil, fmt.Errorf("v1test: rank %d out of range", urank)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return int(urank), nil, decodeFail(0, 0, err)
	}
	if count > 1<<30 {
		return 0, nil, fmt.Errorf("v1test: record count %d too large", count)
	}
	// The declared count is attacker-controlled until the stream is fully
	// read: preallocate a bounded amount and let append grow the rest, so a
	// forged header can't demand gigabytes up front.
	records = make([]recorder.Record, 0, min(count, 4096))
	for i := uint64(0); i < count; i++ {
		var rec recorder.Record
		rec.Rank = int32(urank)
		layer, err := br.ReadByte()
		if err != nil {
			return int(urank), records, decodeFail(count, len(records), err)
		}
		rec.Layer = recorder.Layer(layer)
		fn, err := binary.ReadUvarint(br)
		if err != nil {
			return int(urank), records, decodeFail(count, len(records), err)
		}
		rec.Func = recorder.Func(fn)
		if rec.TStart, err = binary.ReadUvarint(br); err != nil {
			return int(urank), records, decodeFail(count, len(records), err)
		}
		dur, err := binary.ReadUvarint(br)
		if err != nil {
			return int(urank), records, decodeFail(count, len(records), err)
		}
		rec.TEnd = rec.TStart + dur
		if rec.TEnd < rec.TStart {
			return int(urank), records, fmt.Errorf("v1test: record %d duration overflows", i)
		}
		if rec.Path, err = readStr(); err != nil {
			return int(urank), records, decodeFail(count, len(records), err)
		}
		if rec.Path2, err = readStr(); err != nil {
			return int(urank), records, decodeFail(count, len(records), err)
		}
		nargs, err := binary.ReadUvarint(br)
		if err != nil {
			return int(urank), records, decodeFail(count, len(records), err)
		}
		if nargs > recorder.MaxArgs {
			return int(urank), records, fmt.Errorf("v1test: %d args too many", nargs)
		}
		if nargs > 0 {
			rec.Args = make([]int64, nargs)
			for j := range rec.Args {
				if rec.Args[j], err = binary.ReadVarint(br); err != nil {
					return int(urank), records, decodeFail(count, len(records), err)
				}
			}
		}
		records = append(records, rec)
	}
	return int(urank), records, nil
}
