package consistency

import (
	"strings"
	"testing"

	"repro/internal/pfs"
)

// TestViolationNamesReadAndWrite pins the counterexample a rejection
// carries: the violating read (its history seq and rank), the first bad
// byte, and the implicated write, so a rejected run points straight at the
// two operations of the op history that disagree.
func TestViolationNamesReadAndWrite(t *testing.T) {
	// Lost update under strong semantics: the read returns the superseded
	// bytes.
	h := new(hist).
		open(0, 1, pfs.OCreat|pfs.ORdwr, 10).
		open(1, 2, pfs.ORdwr, 20).
		write(0, 1, 0, "aaa", 30).
		write(0, 1, 0, "bbb", 40).
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
	if v.Write == nil || v.Write.Seq != 4 || string(v.Write.Data) != "bbb" {
		t.Fatalf("violation does not name the superseding write: %+v", v.Write)
	}
	if !strings.Contains(v.String(), "vs write #4 (rank 0 [0,+3))") {
		t.Errorf("Violation.String() does not name the write: %s", v)
	}
}
