// Package v1test writes the record-framed v1 trace format (SEMFSTR1) for
// tests. Production code writes only the columnar format
// (internal/recorder/colfmt) and reads v1 through recorder.DecodeRankStream
// behind colfmt's per-file sniff; the tests, benchmarks and CI steps that
// keep that read path covered build their v1 streams and directories here.
// No command links this package.
package v1test

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/recorder"
)

// magic opens every v1 stream.
const magic = "SEMFSTR1"

// SaveDir writes tr as a v1 trace directory: the "trace.meta" JSON colfmt
// writes plus one v1 stream per rank under recorder.RankFileName.
func SaveDir(dir string, tr *recorder.Trace) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	meta, err := json.MarshalIndent(tr.Meta, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "trace.meta"), meta, 0o644); err != nil {
		return err
	}
	for rank := range tr.PerRank {
		f, err := os.Create(filepath.Join(dir, recorder.RankFileName(rank)))
		if err != nil {
			return err
		}
		err = EncodeRankStream(f, rank, tr.Records(rank))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("v1test: writing rank %d: %w", rank, err)
		}
	}
	return nil
}

// EncodeRankStream writes one rank's records to w as a v1 stream, the
// layout recorder.DecodeRankStream reads.
func EncodeRankStream(w io.Writer, rank int, records []recorder.Record) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	writeVarint := func(v int64) error {
		n := binary.PutVarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	strTable := make(map[string]uint64)
	writeStr := func(s string) error {
		if s == "" {
			return writeUvarint(0)
		}
		if idx, ok := strTable[s]; ok {
			return writeUvarint(idx + 2)
		}
		strTable[s] = uint64(len(strTable))
		if err := writeUvarint(1); err != nil {
			return err
		}
		if err := writeUvarint(uint64(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}

	if err := writeUvarint(uint64(rank)); err != nil {
		return err
	}
	if err := writeUvarint(uint64(len(records))); err != nil {
		return err
	}
	for i := range records {
		r := &records[i]
		if err := bw.WriteByte(byte(r.Layer)); err != nil {
			return err
		}
		if err := writeUvarint(uint64(r.Func)); err != nil {
			return err
		}
		if err := writeUvarint(r.TStart); err != nil {
			return err
		}
		if r.TEnd < r.TStart {
			return fmt.Errorf("v1test: record %d has TEnd < TStart", i)
		}
		if err := writeUvarint(r.TEnd - r.TStart); err != nil {
			return err
		}
		if err := writeStr(r.Path); err != nil {
			return err
		}
		if err := writeStr(r.Path2); err != nil {
			return err
		}
		if err := writeUvarint(uint64(len(r.Args))); err != nil {
			return err
		}
		for _, a := range r.Args {
			if err := writeVarint(a); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
