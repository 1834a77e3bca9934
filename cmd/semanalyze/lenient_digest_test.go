package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	semfs "repro"
	"repro/internal/ckpt"
	"repro/internal/recorder"
	"repro/internal/recorder/colfmt"
	"repro/internal/recorder/colwire"
	"repro/internal/storage"
)

const lenientDigestGolden = "testdata/lenient_digest.golden"

// reencodeSmallBlocks rewrites a columnar rank file with 8-record blocks,
// so damage lands mid-stream instead of killing the rank's only block.
func reencodeSmallBlocks(t *testing.T, tr *semfs.Trace, rank int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := colfmt.EncodeStream(&buf, rank, tr.Records(rank), colfmt.EncodeOptions{BlockRecords: 8}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// flipMidBlock flips a payload byte of the middle data frame of a columnar
// stream, leaving its footer dictionary intact. Frames follow the header
// (magic, uvarint rank, uvarint record count); each is a kind byte, a
// little-endian 4-byte payload length and a 4-byte CRC.
func flipMidBlock(t *testing.T, data []byte) {
	t.Helper()
	off := len(colwire.Magic)
	for range 2 {
		_, n := binary.Uvarint(data[off:])
		off += n
	}
	var frames []int
	for off < len(data) && data[off] == 1 { // data frames precede the dictionary
		frames = append(frames, off)
		off += 9 + int(binary.LittleEndian.Uint32(data[off+1:]))
	}
	if len(frames) < 3 {
		t.Fatalf("%d data frames, want at least 3", len(frames))
	}
	data[frames[len(frames)/2]+9+2] ^= 0xff
}

func writeRank(t *testing.T, dir string, rank int, data []byte) {
	t.Helper()
	if err := os.WriteFile(rankFile(dir, rank), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func readRank(t *testing.T, dir string, rank int) []byte {
	t.Helper()
	data, err := os.ReadFile(rankFile(dir, rank))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLenientDigestGolden pins -lenient's stdout (SHA-256 and size) and exit
// code for each kind of rank-file damage. Every case runs at -workers 1 and
// 4, without and with -checkpoint, and then as a -resume replay of that
// checkpoint; all six runs must print the same bytes and exit alike, so
// each case is one golden line. Rerun with UPDATE_LENIENT_DIGEST=1 to
// regenerate the golden file and put the diff in review.
func TestLenientDigestGolden(t *testing.T) {
	res, err := semfs.Run("FLASH-nofbs", semfs.RunOptions{Ranks: 8, PPN: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	wrongRank := func(t *testing.T, dir string) { writeRank(t, dir, 0, readRank(t, dir, 1)) }
	cases := []struct {
		name   string
		format string
		damage func(t *testing.T, dir string)
	}{
		{"clean", "columnar", func(*testing.T, string) {}},
		{"torn-columnar", "columnar", func(t *testing.T, dir string) {
			data := reencodeSmallBlocks(t, tr, 1)
			writeRank(t, dir, 1, data[:len(data)/2])
		}},
		{"crc-mid-block", "columnar", func(t *testing.T, dir string) {
			data := reencodeSmallBlocks(t, tr, 2)
			flipMidBlock(t, data)
			writeRank(t, dir, 2, data)
		}},
		{"missing", "columnar", func(t *testing.T, dir string) {
			if err := os.Remove(rankFile(dir, 3)); err != nil {
				t.Fatal(err)
			}
		}},
		{"wrong-rank-columnar", "columnar", wrongRank},
		{"all-unreadable", "columnar", func(t *testing.T, dir string) {
			for rank := range tr.PerRank {
				if err := os.Remove(rankFile(dir, rank)); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	var lines []string
	for _, tc := range cases {
		dir := filepath.Join(t.TempDir(), "trace")
		saveTrace(t, dir, tr, tc.format)
		tc.damage(t, dir)
		var line string
		for _, workers := range []int{1, 4} {
			ck := filepath.Join(t.TempDir(), "ckpt")
			args := []string{"-trace", dir, "-lenient", "-report", "-workers", strconv.Itoa(workers)}
			for _, mode := range [][]string{nil, {"-checkpoint", ck}, {"-checkpoint", ck, "-resume"}} {
				code, stdout, _ := semanalyze(t, append(args, mode...)...)
				l := fmt.Sprintf("%s exit=%d bytes=%d sha256=%x", tc.name, code, len(stdout), sha256.Sum256(stdout))
				if line == "" {
					line = l
				} else if l != line {
					t.Errorf("workers=%d %v: %s, want %s as in every other run of the case", workers, mode, l, line)
				}
			}
		}
		lines = append(lines, line)
	}
	got := strings.Join(lines, "\n") + "\n"

	if os.Getenv("UPDATE_LENIENT_DIGEST") == "1" {
		if err := os.WriteFile(lenientDigestGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d cases)", lenientDigestGolden, len(lines))
		return
	}
	want, err := os.ReadFile(lenientDigestGolden)
	if err != nil {
		t.Fatalf("reading %s (rerun with UPDATE_LENIENT_DIGEST=1 to create it): %v", lenientDigestGolden, err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("golden has %d cases, the test ran %d", len(wantLines), len(lines))
	}
	for i, l := range lines {
		if l != wantLines[i] {
			t.Errorf("output moved:\n got  %s\n want %s", l, wantLines[i])
		}
	}
}

// TestLenientResumeReplaysSalvageCauses: a -resume replay of a -lenient
// analysis prints the salvage causes the first run printed on stderr, not
// only its report; and a journal cached in the layout without the causes
// is refused as another run's, not misread.
func TestLenientResumeReplaysSalvageCauses(t *testing.T) {
	res, err := semfs.Run("FLASH-nofbs", semfs.RunOptions{Ranks: 4, PPN: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "trace")
	saveTrace(t, dir, res.Trace, "columnar")
	data := reencodeSmallBlocks(t, res.Trace, 1)
	flipMidBlock(t, data)
	writeRank(t, dir, 1, data)

	ck := filepath.Join(t.TempDir(), "ckpt")
	args := []string{"-trace", dir, "-lenient", "-validate=false", "-report", "-checkpoint", ck}
	code, stdout, stderr := semanalyze(t, args...)
	if !bytes.Contains(stderr, []byte("semanalyze: "+recorder.RankFileName(1)+": ")) {
		t.Fatalf("first run's stderr names no cause for rank 1 (exit %d):\n%s", code, stderr)
	}
	rcode, rstdout, rstderr := semanalyze(t, append(args, "-resume")...)
	if rcode != code || !bytes.Equal(rstdout, stdout) {
		t.Errorf("resumed run: exit %d and %d stdout bytes, want exit %d and the first run's %d", rcode, len(rstdout), code, len(stdout))
	}
	if !bytes.Equal(rstderr, stderr) {
		t.Errorf("resumed run's stderr:\n%s\nwant the first run's:\n%s", rstderr, stderr)
	}

	// The layout before the causes: the exit code byte, then the report.
	old := filepath.Join(t.TempDir(), "ckpt")
	store, err := ckpt.OpenOn(storage.OS(), old, ckpt.Manifest{Kind: "semanalyze",
		Params: "validate=false show=5 report=true lenient=true"})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := colfmt.MetaOn(storage.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Append(traceKey(storage.OS(), dir, meta), append([]byte{byte(code)}, stdout...)); err != nil {
		t.Fatal(err)
	}
	store.Close()
	args[len(args)-1] = old
	code, stdout, stderr = semanalyze(t, append(args, "-resume")...)
	if code != exitError || len(stdout) != 0 || !bytes.Contains(stderr, []byte(ckpt.ErrMismatch.Error())) {
		t.Errorf("resume from an old-layout journal: exit %d, %d stdout bytes, stderr %q; want exit %d, no stdout and %q",
			code, len(stdout), stderr, exitError, ckpt.ErrMismatch)
	}
}
