package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	semfs "repro"
	"repro/internal/recorder"
	"repro/internal/recorder/colfmt"
	"repro/internal/recorder/colwire"
	"repro/internal/recorder/v1test"
	"repro/internal/storage"
)

// runMainEnv makes the test binary run semanalyze's main instead of the
// tests, so a test can drive the real command line: flags, exit code and
// both output streams.
const runMainEnv = "SEMANALYZE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// semanalyze runs the command with args and returns its exit code, stdout
// and stderr.
func semanalyze(t *testing.T, args ...string) (int, []byte, []byte) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.Bytes(), stderr.Bytes()
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.Bytes(), stderr.Bytes()
	}
	t.Fatal(err)
	return 0, nil, nil
}

// saveTrace writes tr to dir in format "columnar" (semfs.SaveTraceOn) or
// "v1" (the test-support writer).
func saveTrace(t *testing.T, dir string, tr *recorder.Trace, format string) {
	t.Helper()
	var err error
	if format == "v1" {
		err = v1test.SaveDir(dir, tr)
	} else {
		err = semfs.SaveTraceOn(storage.OS(), dir, tr)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func rankFile(dir string, rank int) string {
	return filepath.Join(dir, recorder.RankFileName(rank))
}

func truncateRank(t *testing.T, dir string, rank int) {
	t.Helper()
	fi, err := os.Stat(rankFile(dir, rank))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(rankFile(dir, rank), fi.Size()/2); err != nil {
		t.Fatal(err)
	}
}

// flipCRC flips a byte of the CRC of a columnar rank file's first frame,
// which follows the header (magic, uvarint rank, uvarint record count) and
// the frame's kind byte and length.
func flipCRC(t *testing.T, dir string, rank int) {
	t.Helper()
	path := rankFile(dir, rank)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := len(colwire.Magic)
	for range 2 {
		_, n := binary.Uvarint(data[off:])
		off += n
	}
	data[off+1+4] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDamagedTraceExits1: a damaged trace directory fails the default path
// and the -checkpoint path with exit 1, nothing on stdout, and exactly the
// error a strict load reports for its lowest damaged rank, at every worker
// count. An intact v1 directory is no trace either: every rank fails by its
// magic, so the error names rank 0, and -lenient finds nothing to salvage.
func TestDamagedTraceExits1(t *testing.T) {
	res, err := semfs.Run("FLASH-nofbs", semfs.RunOptions{Ranks: 8, PPN: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	disk := storage.OS()
	for _, tc := range []struct {
		name   string
		format string
		damage func(t *testing.T, dir string)
	}{
		{"truncated", "columnar", func(t *testing.T, dir string) { truncateRank(t, dir, 1) }},
		{"v1", "v1", func(*testing.T, string) {}},
		{"flipped-crc", "columnar", func(t *testing.T, dir string) { flipCRC(t, dir, 2) }},
		{"missing", "columnar", func(t *testing.T, dir string) {
			if err := os.Remove(rankFile(dir, 3)); err != nil {
				t.Fatal(err)
			}
		}},
		{"rank-mismatch", "columnar", func(t *testing.T, dir string) {
			data, err := os.ReadFile(rankFile(dir, 1))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(rankFile(dir, 0), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"two-damaged", "columnar", func(t *testing.T, dir string) {
			truncateRank(t, dir, 5)
			flipCRC(t, dir, 2)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			saveTrace(t, dir, res.Trace, tc.format)
			tc.damage(t, dir)
			for _, workers := range []int{1, 4} {
				// run's default backend: osdisk behind the retry wrapper.
				_, lerr := semfs.LoadTraceOn(storage.NewRetry(disk, storage.RetryOptions{}), dir, workers)
				if lerr == nil {
					t.Fatalf("workers=%d: the damaged trace loads", workers)
				}
				if tc.format == "v1" && (!errors.Is(lerr, colfmt.ErrBadMagic) || !strings.HasPrefix(lerr.Error(), "recorder: reading rank 0: ")) {
					t.Fatalf("workers=%d: LoadTraceOn of a v1 directory: %v, want rank 0's bad magic", workers, lerr)
				}
				args := []string{"-trace", dir, "-report", "-workers", strconv.Itoa(workers)}
				for _, extra := range [][]string{nil, {"-checkpoint", filepath.Join(t.TempDir(), "ckpt")}} {
					code, stdout, stderr := semanalyze(t, append(args, extra...)...)
					if code != exitError || len(stdout) != 0 {
						t.Errorf("workers=%d %v: exit %d with %d bytes on stdout, want exit %d and none", workers, extra, code, len(stdout), exitError)
					}
					if want := "semanalyze: " + lerr.Error() + "\n"; string(stderr) != want {
						t.Errorf("workers=%d %v: stderr\n%q\nwant LoadTraceOn's\n%q", workers, extra, stderr, want)
					}
				}
				if tc.format != "v1" {
					continue
				}
				code, stdout, stderr := semanalyze(t, append(args, "-lenient")...)
				wantOut := fmt.Sprintf("salvage: 0/%d streams full, 0 truncated, %[1]d unreadable; 0 records (0 salvaged, 0 dropped)\n", len(res.Trace.PerRank))
				if code != exitError || string(stdout) != wantOut || !strings.HasSuffix(string(stderr), ": nothing salvageable\n") {
					t.Errorf("workers=%d -lenient: exit %d, stdout %q, stderr %q; want exit %d, stdout %q and nothing salvageable",
						workers, code, stdout, stderr, exitError, wantOut)
				}
				// Each rank's cause is on stderr, not only the count.
				if want := "semanalyze: " + recorder.RankFileName(0) + ": "; !strings.Contains(string(stderr), want) || !strings.Contains(string(stderr), "bad magic") {
					t.Errorf("workers=%d -lenient: stderr %q does not say why rank 0 was lost (want %q and bad magic)", workers, stderr, want)
				}
			}
		})
	}
}
