package obs

import (
	"encoding/json"
	"sync"
	"testing"
)

// TestTracerDisabledByDefault: a fresh registry collects no spans until the
// tracer is explicitly enabled.
func TestTracerDisabledByDefault(t *testing.T) {
	r := newRegistry()
	r.Tracer().Start("a", "b").End()
	if n := r.Tracer().Len(); n != 0 {
		t.Errorf("disabled tracer collected %d spans", n)
	}
}

// TestChromeTraceExport checks the exported document parses as the Chrome
// trace_event format: a traceEvents array of complete ("X") events with
// microsecond timestamps, parent links in args, and lanes as tids.
func TestChromeTraceExport(t *testing.T) {
	r := newRegistry()
	tr := r.Tracer()
	tr.SetEnabled(true)

	root := tr.Start("analyze", "core")
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sp := root.Child("worker").OnLane(w + 1)
			sp.Child("task").End()
			sp.End()
		}(w)
	}
	wg.Wait()
	root.End()

	if got, want := tr.Len(), 7; got != want {
		t.Fatalf("collected %d spans, want %d", got, want)
	}
	b, err := tr.chromeTraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("export is not valid trace_event JSON: %v\n%s", err, b)
	}
	if len(doc.TraceEvents) != 7 {
		t.Fatalf("exported %d events, want 7", len(doc.TraceEvents))
	}
	lanes := map[int]bool{}
	children := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q: ph = %q, want X", ev.Name, ev.Ph)
		}
		if ev.TS < 0 || ev.Dur < 0 {
			t.Errorf("event %q: negative ts/dur (%f, %f)", ev.Name, ev.TS, ev.Dur)
		}
		lanes[ev.TID] = true
		if ev.Args["parent"] != nil {
			children++
		}
	}
	for w := 1; w <= 3; w++ {
		if !lanes[w] {
			t.Errorf("lane %d missing from export", w)
		}
	}
	if children != 6 {
		t.Errorf("%d events carry parent links, want 6", children)
	}
}

// TestTraceNilAndDisabledFastPaths: every span call is safe and inert on a
// nil tracer, a disabled tracer, and the nil spans they return.
func TestTraceNilAndDisabledFastPaths(t *testing.T) {
	var nilTr *Tracer
	if sp := nilTr.Start("x", "y"); sp != nil {
		t.Error("nil tracer Start returned a span")
	}

	r := newRegistry()
	tr := r.Tracer() // never enabled
	sp := tr.Start("x", "y")
	if sp != nil {
		t.Fatal("disabled tracer Start returned a span")
	}
	sp.Child("c").End()
	sp.OnLane(3).End()
	if tr.Len() != 0 {
		t.Errorf("disabled tracer collected %d spans", tr.Len())
	}
}

// TestChromeTraceExportEmpty: an empty tracer still produces a valid
// document (the CI step runs the validator unconditionally).
func TestChromeTraceExportEmpty(t *testing.T) {
	var tr Tracer
	b, err := tr.chromeTraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("empty export is not valid JSON: %v\n%s", err, b)
	}
	if _, ok := doc["traceEvents"].([]any); !ok {
		t.Fatalf("traceEvents is not an array: %s", b)
	}
}
