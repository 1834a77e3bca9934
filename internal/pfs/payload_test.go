package pfs

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/payload"
)

// historyLog keeps every recorded event.
type historyLog []HistoryEvent

func (l *historyLog) Record(ev HistoryEvent) { *l = append(*l, ev) }

// payloadRun is everything a client or a checker can observe of one op
// sequence.
type payloadRun struct {
	Reads   []string
	Dump    map[string][]byte
	History historyLog
	Stats   Stats
}

// runPayloadOps drives one op sequence with overlapping, torn and
// truncated writes from two clients, reading at unaligned offsets along
// the way. mk makes each write's payload from a generator state and a
// length.
func runPayloadOps(t *testing.T, opts Options, mk func(seed uint64, n int64) payload.P) payloadRun {
	t.Helper()
	fs := New(opts)
	var run payloadRun
	fs.SetHistoryRecorder(&run.History)
	fs.SetInjector(injectFunc(func(op OpInfo) FaultAction {
		if op.Kind == OpWrite && op.Off == 301 {
			return FaultAction{Torn: true, TornKeep: 37}
		}
		return FaultAction{}
	}))
	c0, c1 := fs.NewClient(0, 0), fs.NewClient(1, 1)
	h0 := mustOpen(t, c0, "/f", OCreat|ORdwr, 1)
	h1 := mustOpen(t, c1, "/f", OCreat|ORdwr, 2)
	now := uint64(10)
	write := func(h *Handle, off int64, seed uint64, n int64) {
		now += 10
		if _, err := h.Write(off, mk(seed, n), now); err != nil {
			t.Fatalf("write %d+%d: %v", off, n, err)
		}
	}
	read := func(h *Handle, off, n int64) {
		now += 10
		b, _, err := h.Read(off, n, now)
		run.Reads = append(run.Reads, fmt.Sprintf("rank %d [%d,+%d) at %d: %x %v", h.c.rank, off, n, now, b, err))
	}
	write(h0, 0, 1, 1000)
	write(h0, 250, 2, 501) // overlaps the first write from inside
	write(h0, 301, 3, 200) // torn to 37 bytes
	write(h1, 777, 4, 333) // overlaps rank 0's range from the other client
	for _, h := range []*Handle{h0, h1} {
		read(h, 0, 1200)
		read(h, 13, 291)
		read(h, 333, 555)
	}
	now += 10
	if _, err := h0.Commit(now); err != nil {
		t.Fatal(err)
	}
	read(h1, 3, 1107)
	if _, err := h0.Truncate(901); err != nil {
		t.Fatal(err)
	}
	write(h1, 850, 5, 99) // straddles the new length and extends the file to 949
	write(h0, 899, 6, 9)
	now += 100_000_000 // past the eventual delay
	for _, h := range []*Handle{h0, h1} {
		read(h, 5, 1100)
		read(h, 895, 11)
	}
	now += 10
	if _, err := h1.Close(now); err != nil {
		t.Fatal(err)
	}
	now += 10
	if _, err := h0.Close(now); err != nil {
		t.Fatal(err)
	}
	run.Dump = fs.ContentDump()
	run.Stats = fs.Stats()
	return run
}

// A fill reference and the bytes it stands for are the same payload to
// every reader: each read, the content dump, the history's Data and Digest
// and the stats agree between a run that writes references and one that
// writes their materialized bytes, under every model and under BurstFS's
// unordered same-process writes.
func TestFillReferencesMatchBytes(t *testing.T) {
	ref := func(seed uint64, n int64) payload.P { return payload.Fill(seed, n) }
	plain := func(seed uint64, n int64) payload.P { return payload.Bytes(payload.Fill(seed, n).Materialize()) }
	for _, sem := range AllSemantics() {
		for _, unordered := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/unordered=%v", sem, unordered), func(t *testing.T) {
				opts := Options{Semantics: sem, UnorderedSameProcess: unordered}
				got, want := runPayloadOps(t, opts, ref), runPayloadOps(t, opts, plain)
				if !reflect.DeepEqual(got, want) {
					for i := range want.Reads {
						if i < len(got.Reads) && got.Reads[i] != want.Reads[i] {
							t.Errorf("read %d:\n refs:  %.160s\n bytes: %.160s", i, got.Reads[i], want.Reads[i])
						}
					}
					t.Fatal("a run with fill references differs from one with their bytes")
				}
				if f := got.Dump["/f"]; len(f) < 949 || bytes.Count(f, []byte{0}) > 100 {
					t.Fatalf("content dump has %d bytes, %d of them zero: the fills did not land", len(f), bytes.Count(f, []byte{0}))
				}
			})
		}
	}
}
