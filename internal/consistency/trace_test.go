package consistency

import (
	"strings"
	"testing"

	"repro/internal/pfs"
)

// TestViolationNamesWriteTrace pins the counterexample a rejection carries:
// the violating read (its history seq and rank), the first bad byte, and
// the implicated write together with the causal trace ID a WAL-drained
// publish stamps on it, so a rejected run points straight at the write's
// span chain in a -trace-spans export.
func TestViolationNamesWriteTrace(t *testing.T) {
	// Lost update under strong semantics; the superseding write carries a
	// causal trace ID, as a WAL-drained publish would stamp it.
	h := new(hist).
		open(0, 1, pfs.OCreat|pfs.ORdwr, 10).
		open(1, 2, pfs.ORdwr, 20).
		write(0, 1, 0, "aaa", 30).
		add(pfs.HistoryEvent{Kind: pfs.EvWrite, Rank: 0, Handle: 1, Off: 0,
			Len: 3, Data: []byte("bbb"), Now: 40, Trace: 0xfeed}).
		read(1, 2, 0, 3, "aaa", 50)

	res := checkHistory(pfs.Strong, h.evs, Options{})
	if res.OK() {
		t.Fatal("strong spec accepted the violating history")
	}
	v := res.Violation
	if v.Read.Seq != 5 || v.Read.Rank != 1 || v.Offset != 0 {
		t.Errorf("violation names read seq=%d rank=%d offset=%d, want seq=5 rank=1 offset=0",
			v.Read.Seq, v.Read.Rank, v.Offset)
	}
	if v.Write == nil || v.Write.Trace != 0xfeed {
		t.Fatalf("violation does not name the traced write: %+v", v.Write)
	}
	if !strings.Contains(v.String(), "trace=0xfeed") {
		t.Errorf("Violation.String() does not name the write's trace: %s", v)
	}
}
