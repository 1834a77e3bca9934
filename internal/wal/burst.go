package wal

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/consistency"
	"repro/internal/pfs"
	"repro/internal/storage"
)

// BurstPath is the single shared checkpoint file every burst rank writes.
const BurstPath = "/ckpt.dat"

// BurstSpec describes the deterministic checkpoint-burst workload used by
// the kill-and-recover harness and `semrepro -wal-burst`: Ranks writers
// append Records strided blocks each into one shared file (N-1 pattern,
// disjoint offsets), committing every CommitEvery records — the FLASH/HACC
// checkpoint shape from the paper, reduced to a protocol so deterministic
// that recovery can verify every salvaged record against what the workload
// must have written.
type BurstSpec struct {
	Semantics   pfs.Semantics
	Ranks       int   // default 4
	Records     int   // per-rank record count; default 64
	Block       int64 // record payload size; default 1024
	CommitEvery int   // commit cadence in records; default 16
	Seed        uint64
	Log         Options // Log.Dir must be set: it is the recovery root
}

func (s BurstSpec) withDefaults() BurstSpec {
	if s.Log.Backend == nil {
		s.Log.Backend = storage.OS()
	}
	if s.Ranks <= 0 {
		s.Ranks = 4
	}
	if s.Records <= 0 {
		s.Records = 64
	}
	if s.Block <= 0 {
		s.Block = 1024
	}
	if s.CommitEvery <= 0 {
		s.CommitEvery = 16
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// offset places rank r's k-th record: block-strided so all ranks interleave
// in the shared file without overlap (which also makes the final state
// independent of cross-rank publish order).
func (s BurstSpec) offset(rank, k int) int64 {
	return (int64(k)*int64(s.Ranks) + int64(rank)) * s.Block
}

// payload is the deterministic record body: any salvaged byte that differs
// from it is corruption, not just loss.
func (s BurstSpec) payload(rank, k int) []byte {
	buf := make([]byte, s.Block)
	h := s.Seed ^ uint64(rank)*0x9e3779b97f4a7c15 ^ uint64(k)*0xbf58476d1ce4e5b9
	for i := range buf {
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		buf[i] = byte(h >> 56)
	}
	return buf
}

func ackName(rank int) string { return fmt.Sprintf("acks-rank-%04d.log", rank) }

// BurstResult is one uninterrupted burst run's outcome.
type BurstResult struct {
	Dump  map[string][]byte // final fully-published pfs content
	Stats []Stats           // per-rank wal counters
	Spec  consistency.Result
}

// RunBurst executes the burst through per-rank WALs against one fresh pfs,
// recording the op history and checking it against the model's formal spec.
// After each acknowledged write the rank appends the record index to a
// plain ack file; on osdisk completed file writes survive SIGKILL in the
// page cache, and on every other backend each ack line is Sync'd before the
// next write issues, so the ack files are a trustworthy floor on what
// recovery must return — the "zero acked writes lost" half of the harness.
// A write a degraded WAL acked by writing it through to the pfs is not in
// the log and dies with the process, so its line carries the mark " wt"
// and counts toward no floor.
// Safe to SIGKILL at any point (that is its purpose); everything it needs
// for recovery lives under spec.Log.Dir on spec.Log.Backend.
func RunBurst(spec BurstSpec) (*BurstResult, error) {
	spec = spec.withDefaults()
	if spec.Log.Dir == "" {
		return nil, errors.New("wal: burst needs Log.Dir (recovery root)")
	}
	sb := spec.Log.Backend
	if err := sb.MkdirAll(spec.Log.Dir); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	// On osdisk an un-synced append is still crash-durable enough for the
	// floor argument (page cache outlives SIGKILL); weaker backends only
	// make a write recoverable at Sync, so the floor must pay for it.
	syncAcks := storage.Base(sb).Name() != "osdisk"
	fs := pfs.New(pfs.Options{Semantics: spec.Semantics})
	hist := consistency.NewLog()
	fs.SetHistoryRecorder(hist)
	var clock atomic.Uint64
	now := func() uint64 { return clock.Add(10) }

	stats := make([]Stats, spec.Ranks)
	errs := make([]error, spec.Ranks)
	var wg sync.WaitGroup
	for r := 0; r < spec.Ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = func() error {
				l, err := Open(r, spec.Log)
				if err != nil {
					return err
				}
				defer func() { stats[r] = l.Stats() }()
				ack, err := sb.Open(filepath.Join(spec.Log.Dir, ackName(r)),
					storage.OCreate|storage.OWronly|storage.OAppend, 0o644)
				if err != nil {
					l.Close()
					return err
				}
				c := fs.NewClient(r, 0)
				h, _, err := l.Open(c, BurstPath, pfs.OCreat|pfs.ORdwr, now())
				if err != nil {
					ack.Close()
					l.Close()
					return err
				}
				for k := 0; k < spec.Records; k++ {
					through := l.Stats().WriteThrough
					if _, err := l.Write(h, spec.offset(r, k), spec.payload(r, k), now()); err != nil {
						break
					}
					if l.Stats().WriteThrough > through {
						fmt.Fprintf(ack, "%d%s\n", k, writeThroughMark)
					} else {
						fmt.Fprintf(ack, "%d\n", k)
					}
					if syncAcks {
						if err := ack.Sync(); err != nil {
							break
						}
					}
					if (k+1)%spec.CommitEvery == 0 {
						if _, err := l.Commit(h, now()); err != nil {
							break
						}
					}
				}
				if _, err := l.Commit(h, now()); err != nil {
					ack.Close()
					l.Close()
					return err
				}
				if _, err := l.CloseHandle(h, now()); err != nil {
					ack.Close()
					l.Close()
					return err
				}
				if err := ack.Close(); err != nil {
					l.Close()
					return err
				}
				return l.Close()
			}()
			if errs[r] != nil {
				errs[r] = fmt.Errorf("rank %d: %w", r, errs[r])
			}
		}(r)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	res := &BurstResult{Dump: fs.ContentDump(), Stats: stats}
	res.Spec = consistency.CheckLog(spec.Semantics, hist,
		consistency.Options{EventualDelayNS: uint64(fs.Options().EventualDelay)})
	return res, nil
}

// writeThroughMark ends the ack line of a write acked by write-through.
const writeThroughMark = " wt"

// readAcks returns the per-rank count of acknowledged records from the
// burst's ack files — log-backed acks and write-through acks apart — plus a
// per-rank flag distinguishing a zero-length ack file (rank started, acked
// nothing — an explicit floor of 0) from a missing one (rank never got as
// far as opening it). Both floors are 0, but conflating them hid a class of
// harness bugs where a rank silently never ran; the recovery report now
// states which case each rank is in.
func readAcks(b storage.Backend, dir string, ranks int) (logged, through []int, present []bool, err error) {
	logged = make([]int, ranks)
	through = make([]int, ranks)
	present = make([]bool, ranks)
	for r := 0; r < ranks; r++ {
		data, err := b.ReadFile(filepath.Join(dir, ackName(r)))
		if err != nil {
			if storage.IsNotExist(err) {
				continue
			}
			return nil, nil, nil, err
		}
		present[r] = true
		for _, line := range strings.Split(string(data), "\n") {
			switch line = strings.TrimSpace(line); {
			case line == "":
			case strings.HasSuffix(line, writeThroughMark):
				through[r]++
			default:
				logged[r]++
			}
		}
	}
	return logged, through, present, nil
}

// RecoveryReport is the outcome of RecoverBurst, formatted into the
// `semrepro -wal-recover` artifact.
type RecoveryReport struct {
	Spec     BurstSpec
	PerRank  []int  // recovered record count per rank
	Acked    []int  // ack-file floor per rank: its log-backed acks
	AckFiles []bool // ack file present (possibly zero-length) per rank
	// WriteThrough counts per rank the acks a degraded WAL gave by
	// writing through to the pfs: they were never in the log, so no
	// recovery can return them and they count toward no floor.
	WriteThrough []int
	Records      int
	Dropped      int   // torn-tail records discarded (≤1 per rank)
	TailBytes    int64 // torn-tail bytes truncated
	Check        consistency.Result
	Dump         map[string][]byte // replayed state
}

// RecoverBurst salvages a (possibly crash-interrupted) burst's log
// directory and proves the recovery claims:
//
//  1. zero acked-write loss — each rank's salvaged records are a strict
//     prefix of the burst protocol, byte-exact, at least as long as the
//     rank's ack file;
//  2. consistency — the records replayed through a fresh pfs yield a
//     history the model's formal spec accepts;
//  3. byte-identical state — the replayed file system's content equals an
//     uninterrupted direct run of the same per-rank prefixes.
func RecoverBurst(spec BurstSpec) (*RecoveryReport, error) {
	spec = spec.withDefaults()
	if spec.Log.Dir == "" {
		return nil, errors.New("wal: recovery needs Log.Dir")
	}
	recs, stats, err := RecoverDirOn(spec.Log.Backend, spec.Log.Dir)
	if err != nil {
		return nil, err
	}
	acked, through, ackFiles, err := readAcks(spec.Log.Backend, spec.Log.Dir, spec.Ranks)
	if err != nil {
		return nil, err
	}
	rep := &RecoveryReport{Spec: spec, PerRank: make([]int, spec.Ranks), Acked: acked, AckFiles: ackFiles, WriteThrough: through}
	for r := 0; r < spec.Ranks; r++ {
		rr := recs[r]
		rep.PerRank[r] = len(rr)
		rep.Records += len(rr)
		rep.Dropped += stats[r].Dropped
		rep.TailBytes += stats[r].TailBytes
		if stats[r].Dropped > 1 {
			return nil, fmt.Errorf("wal: rank %d: %d torn records (append discipline allows at most 1)", r, stats[r].Dropped)
		}
		if len(rr) > spec.Records {
			return nil, fmt.Errorf("wal: rank %d: %d records exceeds workload's %d", r, len(rr), spec.Records)
		}
		if len(rr) < acked[r] {
			return nil, fmt.Errorf("wal: rank %d: ACKED WRITE LOST: recovered %d records, %d were acknowledged", r, len(rr), acked[r])
		}
		for k, rec := range rr {
			if rec.Path != BurstPath || rec.Off != spec.offset(r, k) || !bytes.Equal(rec.Data, spec.payload(r, k)) {
				return nil, fmt.Errorf("wal: rank %d record %d: salvaged bytes differ from protocol (path=%s off=%d len=%d)",
					r, k, rec.Path, rec.Off, len(rec.Data))
			}
		}
	}

	fs := pfs.New(pfs.Options{Semantics: spec.Semantics})
	hist := consistency.NewLog()
	fs.SetHistoryRecorder(hist)
	if err := Replay(fs, recs); err != nil {
		return nil, err
	}
	rep.Check = consistency.CheckLog(spec.Semantics, hist,
		consistency.Options{EventualDelayNS: uint64(fs.Options().EventualDelay)})
	if !rep.Check.OK() {
		return rep, fmt.Errorf("wal: replayed history rejected by %s spec: %s", spec.Semantics, rep.Check.Violation)
	}
	rep.Dump = fs.ContentDump()
	want := DirectDump(spec, rep.PerRank)
	if err := diffDumps(want, rep.Dump); err != nil {
		return rep, fmt.Errorf("wal: recovered state differs from uninterrupted run: %w", err)
	}
	return rep, nil
}

// DirectDump executes counts[r] records per rank straight against a fresh
// pfs — no WAL anywhere — and dumps the result: the state an uninterrupted
// run of exactly those writes produces.
func DirectDump(spec BurstSpec, counts []int) map[string][]byte {
	spec = spec.withDefaults()
	fs := pfs.New(pfs.Options{Semantics: spec.Semantics})
	var now uint64
	tick := func() uint64 { now += 10; return now }
	for r := 0; r < spec.Ranks; r++ {
		n := 0
		if r < len(counts) {
			n = counts[r]
		}
		if n == 0 {
			continue
		}
		c := fs.NewClient(r, 0)
		h, _, err := c.Open(BurstPath, pfs.OCreat|pfs.ORdwr, tick())
		if err != nil {
			panic(err) // deterministic workload on a fresh fs cannot fail
		}
		for k := 0; k < n; k++ {
			if _, err := h.Write(spec.offset(r, k), spec.payload(r, k), tick()); err != nil {
				panic(err)
			}
		}
		if _, err := h.Commit(tick()); err != nil {
			panic(err)
		}
		if _, err := h.Close(tick()); err != nil {
			panic(err)
		}
	}
	return fs.ContentDump()
}

func diffDumps(want, got map[string][]byte) error {
	for path, w := range want {
		g, ok := got[path]
		if !ok {
			return fmt.Errorf("%s missing", path)
		}
		if !bytes.Equal(w, g) {
			i := 0
			for i < len(w) && i < len(g) && w[i] == g[i] {
				i++
			}
			return fmt.Errorf("%s differs at byte %d (want %d bytes, got %d)", path, i, len(w), len(g))
		}
	}
	for path := range got {
		if _, ok := want[path]; !ok {
			return fmt.Errorf("unexpected file %s", path)
		}
	}
	return nil
}

// FormatDump renders a content dump deterministically: one line per file
// with its size and SHA-256. Two runs with byte-identical state produce
// byte-identical dumps, so CI can diff the artifact files directly.
func FormatDump(dump map[string][]byte) string {
	paths := make([]string, 0, len(dump))
	for p := range dump {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var b strings.Builder
	for _, p := range paths {
		sum := sha256.Sum256(dump[p])
		fmt.Fprintf(&b, "%s\t%d\t%x\n", p, len(dump[p]), sum)
	}
	return b.String()
}

// FormatBurst renders an uninterrupted burst's outcome for the
// `semrepro -wal-burst` artifact.
func FormatBurst(spec BurstSpec, res *BurstResult) string {
	spec = spec.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "wal burst: semantics=%s ranks=%d records=%d block=%d commit_every=%d\n",
		spec.Semantics, spec.Ranks, spec.Records, spec.Block, spec.CommitEvery)
	for r, st := range res.Stats {
		fmt.Fprintf(&b, "  rank %d: acked=%d (%d bytes) drained=%d write_through=%d retries=%d queue_peak=%d\n",
			r, st.Acked, st.AckedBytes, st.Drained, st.WriteThrough, st.Retries, st.QueuePeak)
	}
	verdict := "ACCEPTED"
	if !res.Spec.OK() {
		verdict = "REJECTED: " + res.Spec.Violation.String()
	}
	fmt.Fprintf(&b, "spec check: %s (%s, %d events, %d reads)\n",
		verdict, res.Spec.Model, res.Spec.Events, res.Spec.Reads)
	return b.String()
}

// FormatReport renders a RecoveryReport for the semrepro artifact.
func FormatReport(rep *RecoveryReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "wal recovery: semantics=%s ranks=%d recovered %d record(s), dropped=%d torn, tail_bytes=%d\n",
		rep.Spec.Semantics, rep.Spec.Ranks, rep.Records, rep.Dropped, rep.TailBytes)
	for r := 0; r < rep.Spec.Ranks; r++ {
		ackNote := "no ack file"
		if r < len(rep.AckFiles) && rep.AckFiles[r] {
			ackNote = "ack file present"
		}
		if r < len(rep.WriteThrough) && rep.WriteThrough[r] > 0 {
			ackNote += fmt.Sprintf("; %d more acked by write-through, in the pfs only", rep.WriteThrough[r])
		}
		fmt.Fprintf(&b, "  rank %d: records=%d acked>=%d (%s)\n", r, rep.PerRank[r], rep.Acked[r], ackNote)
	}
	fmt.Fprintf(&b, "spec check: ACCEPTED (%s, %d events, %d reads)\n",
		rep.Check.Model, rep.Check.Events, rep.Check.Reads)
	fmt.Fprintf(&b, "zero acked writes lost: OK\n")
	b.WriteString(FormatDump(rep.Dump))
	return b.String()
}
