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
	c0, c1 := fs.NewClient(0), fs.NewClient(1)
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
		b, _, err := mat(h.Read(off, n, now))
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

// A read that one fill extent covers returns a slice of that reference,
// and a fill extent reads exactly as its twin written as bytes: at nonzero
// offsets inside it, and across its bounds with the bytes extents it
// overlaps, to the writer before and another client after a close, under
// every model.
func TestReadSlicesMatchBytesTwin(t *testing.T) {
	const twinOff, twinLen = 100, 1000
	fill := payload.Fill(0x5eed, twinLen)
	head, tail := bytes.Repeat([]byte{0xa5}, 200), bytes.Repeat([]byte{0x3c}, 200)
	want := make([]byte, 1250) // head, then the twin, then tail, each over the last
	copy(want, head)
	fill.CopyTo(want[twinOff:])
	copy(want[1050:], tail)
	ranges := [][2]int64{ // offset, length
		{101, 1}, {107, 9}, {333, 512}, {100, 950}, {999, 51}, // inside the twin's visible part
		{50, 200}, {1000, 200}, {0, 1250}, {1049, 2}, {1200, 400}, // straddling its bounds or the file's end
	}
	paths := []string{"/ref", "/bytes"}
	for _, sem := range AllSemantics() {
		t.Run(sem.String(), func(t *testing.T) {
			fs := New(Options{Semantics: sem})
			w, r := fs.NewClient(0), fs.NewClient(1)
			check := func(who string, hs []*Handle, now uint64) {
				for _, rg := range ranges {
					var got [2][]byte
					for i, h := range hs {
						p, _, err := h.Read(rg[0], rg[1], now)
						if err != nil {
							t.Fatalf("%s %s %v: %v", who, h.Path(), rg, err)
						}
						if i == 0 && rg[0] >= twinOff && rg[0]+rg[1] <= 1050 &&
							p != fill.Slice(rg[0]-twinOff, rg[0]+rg[1]-twinOff) {
							t.Errorf("%s read %v of the fill extent is not a slice of its reference", who, rg)
						}
						got[i] = p.Materialize()
					}
					end := min(rg[0]+rg[1], int64(len(want)))
					if !bytes.Equal(got[0], got[1]) || !bytes.Equal(got[0], want[rg[0]:end]) {
						t.Errorf("%s read %v: fill extent and bytes twin differ", who, rg)
					}
				}
			}
			var hs []*Handle
			for _, path := range paths {
				h := mustOpen(t, w, path, OCreat|ORdwr, 1)
				twin := fill
				if path == "/bytes" {
					twin = payload.Bytes(fill.Materialize())
				}
				for _, e := range []struct {
					off  int64
					data payload.P
				}{{0, payload.Bytes(head)}, {twinOff, twin}, {1050, payload.Bytes(tail)}} {
					if _, err := h.Write(e.off, e.data, 10); err != nil {
						t.Fatal(err)
					}
				}
				hs = append(hs, h)
			}
			check("writer", hs, 20)
			for _, h := range hs {
				if _, err := h.Close(30); err != nil {
					t.Fatal(err)
				}
			}
			hs = hs[:0]
			for _, path := range paths {
				hs = append(hs, mustOpen(t, r, path, ORdonly, 40))
			}
			check("reader", hs, 1_000_000_000) // past the eventual delay
		})
	}
}
