package wal

import (
	"testing"

	"repro/internal/consistency"
	"repro/internal/obs"
	"repro/internal/payload"
	"repro/internal/pfs"
)

// TestWALCausalTraceChain pins the tentpole guarantee: one WAL-routed write
// produces a linked span chain — wal.write (root, trace = its own id) with
// wal.append as a child on the application side, wal.drain.publish linked to
// the root from the drainer, and a pfs.visible marker parented to the
// publish — the pfs history event carries the same trace ID, and the
// per-model visibility_lag histogram sees a nonzero ack-to-visible
// observation.
func TestWALCausalTraceChain(t *testing.T) {
	tr := obs.Default().Tracer()
	before := tr.Len()
	tr.SetEnabled(true)
	t.Cleanup(func() { tr.SetEnabled(false) })
	lag := obs.Default().Histogram("pfs.visibility_lag.strong")
	lagCount, lagSum := lag.Count(), lag.Snapshot().Sum

	fs := pfs.New(pfs.Options{Semantics: pfs.Strong})
	hist := consistency.NewLog()
	fs.SetHistoryRecorder(hist)
	l, err := Open(0, Options{Dir: t.TempDir(), NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	c := fs.NewClient(0, 0)
	h, _, err := l.Open(c, "/trace/chain", pfs.OCreat|pfs.ORdwr, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Write(h, 0, payload.Bytes([]byte("causal payload")), 20); err != nil {
		t.Fatal(err)
	}
	if err := l.Barrier(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	spans := tr.Spans()[before:]
	byName := map[string]obs.SpanInfo{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	root, ok := byName["wal.write"]
	if !ok {
		t.Fatalf("no wal.write span collected (have %d spans)", len(spans))
	}
	if root.Trace == 0 || root.Trace != root.ID {
		t.Fatalf("wal.write is not a trace root: id=%d trace=%d", root.ID, root.Trace)
	}
	for name, wantParent := range map[string]uint64{
		"wal.append":        root.ID,
		"wal.drain.publish": root.ID,
	} {
		s, ok := byName[name]
		if !ok {
			t.Fatalf("span %q missing from chain", name)
		}
		if s.Trace != root.Trace {
			t.Errorf("%s trace = %d, want %d", name, s.Trace, root.Trace)
		}
		if s.Parent != wantParent {
			t.Errorf("%s parent = %d, want %d", name, s.Parent, wantParent)
		}
	}
	vis, ok := byName["pfs.visible"]
	if !ok {
		t.Fatal("pfs.visible span missing from chain")
	}
	if vis.Trace != root.Trace {
		t.Errorf("pfs.visible trace = %d, want %d", vis.Trace, root.Trace)
	}
	if vis.Parent != byName["wal.drain.publish"].ID {
		t.Errorf("pfs.visible parent = %d, want the publish span %d",
			vis.Parent, byName["wal.drain.publish"].ID)
	}

	// The same trace ID is stamped on the pfs history event the drained
	// publish recorded, so a consistency verdict can name the write's chain.
	found := false
	for _, ev := range hist.Events() {
		if ev.Kind == pfs.EvWrite && ev.Trace == root.Trace {
			found = true
		}
	}
	if !found {
		t.Errorf("no EvWrite history event carries trace %d", root.Trace)
	}

	// Ack-to-visible lag: at least one new observation, strictly positive.
	if got := lag.Count(); got != lagCount+1 {
		t.Errorf("visibility_lag count = %d, want %d", got, lagCount+1)
	}
	if got := lag.Snapshot().Sum; got <= lagSum {
		t.Errorf("visibility_lag sum did not increase: %d -> %d", lagSum, got)
	}
}

// TestWALWriteThroughSkipsChain: a degraded (write-through) write must not
// fabricate a causal chain — no wal.drain.publish span and a zero Trace on
// its history event.
func TestWALWriteThroughSkipsChain(t *testing.T) {
	tr := obs.Default().Tracer()
	before := tr.Len()
	tr.SetEnabled(true)
	t.Cleanup(func() { tr.SetEnabled(false) })

	fs := pfs.New(pfs.Options{Semantics: pfs.Strong})
	hist := consistency.NewLog()
	fs.SetHistoryRecorder(hist)
	l := noDrainLog(t, Options{NoFsync: true})
	l.degraded = true // sticky write-through
	c := fs.NewClient(0, 0)
	h, _, err := l.Open(c, "/trace/through", pfs.OCreat|pfs.ORdwr, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Write(h, 0, payload.Bytes([]byte("direct")), 20); err != nil {
		t.Fatal(err)
	}
	for _, s := range tr.Spans()[before:] {
		if s.Name == "wal.drain.publish" || s.Name == "pfs.visible" {
			t.Errorf("write-through produced a %s span", s.Name)
		}
	}
	for _, ev := range hist.Events() {
		if ev.Kind == pfs.EvWrite && ev.Trace != 0 {
			t.Errorf("write-through history event carries trace %d", ev.Trace)
		}
	}
}
