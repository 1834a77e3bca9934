package pfs

import (
	"bytes"
	"testing"

	"repro/internal/payload"
)

// TestTunablePathSemantics exercises the §2.3 "tunable consistency"
// direction: one namespace, two disciplines — checkpoints under commit
// semantics (cheap), a coordination file under strong semantics (promptly
// visible).
func TestTunablePathSemantics(t *testing.T) {
	fs := New(Options{
		Semantics: Commit,
		PathRules: []PathRule{{Prefix: "/coord/", Semantics: Strong}},
	})
	w := fs.NewClient(0, 0)
	r := fs.NewClient(1, 0)

	// Checkpoint path: commit semantics — invisible until fsync.
	hw, _, err := w.Open("/ckpt/state", OCreat|OWronly, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hw.Write(0, payload.Bytes([]byte("ck")), 20); err != nil {
		t.Fatal(err)
	}
	hr, _, err := r.Open("/ckpt/state", ORdonly, 25)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, _ := mat(hr.Read(0, 2, 30)); len(got) != 0 {
		t.Fatalf("commit-path data visible before commit: %q", got)
	}

	// Coordination path: strong semantics — immediately visible, locked.
	hc, _, err := w.Open("/coord/flag", OCreat|OWronly, 40)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hc.Write(0, payload.Bytes([]byte("go")), 50); err != nil {
		t.Fatal(err)
	}
	hcr, _, err := r.Open("/coord/flag", ORdonly, 45)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, _ := mat(hcr.Read(0, 2, 60)); !bytes.Equal(got, []byte("go")) {
		t.Fatalf("strong-path data not immediately visible: %q", got)
	}
	if st := fs.Stats(); st.LockAcquires == 0 {
		t.Fatal("strong-path accesses should acquire locks")
	}
}

func TestPathRuleFirstMatchWins(t *testing.T) {
	fs := New(Options{
		Semantics: Strong,
		PathRules: []PathRule{
			{Prefix: "/a/b/", Semantics: Session},
			{Prefix: "/a/", Semantics: Commit},
		},
	})
	if got := fs.semFor("/a/b/f"); got != Session {
		t.Fatalf("semFor(/a/b/f) = %v", got)
	}
	if got := fs.semFor("/a/x"); got != Commit {
		t.Fatalf("semFor(/a/x) = %v", got)
	}
	if got := fs.semFor("/other"); got != Strong {
		t.Fatalf("semFor(/other) = %v", got)
	}
}
