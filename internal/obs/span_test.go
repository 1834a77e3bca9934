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

// TestTraceLinkConcurrent exercises the WAL hand-off shape under -race:
// producer goroutines start traces and pass (trace, parent) through a
// channel to a drainer goroutine, which continues each chain with linked
// spans. Every span of a chain must share the producer's trace ID, and the
// Chrome export must carry the trace in args.
func TestTraceLinkConcurrent(t *testing.T) {
	r := newRegistry()
	tr := r.Tracer()
	tr.SetEnabled(true)

	type handoff struct{ trace, parent uint64 }
	const producers, perProducer = 4, 50
	ch := make(chan handoff, producers*perProducer)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				sp := tr.StartTrace("wal.write", "test").OnLane(p)
				sp.Child("wal.append").End()
				ch <- handoff{sp.TraceID(), sp.ID()}
				sp.End()
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { // drainer: continue each chain on another goroutine
		defer close(done)
		for h := range ch {
			pub := tr.StartLinked("drain.publish", "test", h.trace, h.parent)
			tr.StartLinked("visible", "test", h.trace, pub.ID()).End()
			pub.End()
		}
	}()
	wg.Wait()
	close(ch)
	<-done

	spans := tr.Spans()
	if got, want := len(spans), producers*perProducer*4; got != want {
		t.Fatalf("collected %d spans, want %d", got, want)
	}
	byTrace := map[uint64][]SpanInfo{}
	for _, s := range spans {
		if s.Trace == 0 {
			t.Fatalf("span %q has no trace ID", s.Name)
		}
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	if len(byTrace) != producers*perProducer {
		t.Fatalf("got %d distinct traces, want %d", len(byTrace), producers*perProducer)
	}
	for trace, chain := range byTrace {
		if len(chain) != 4 {
			t.Fatalf("trace %#x has %d spans, want 4", trace, len(chain))
		}
		names := map[string]SpanInfo{}
		for _, s := range chain {
			names[s.Name] = s
		}
		root := names["wal.write"]
		if root.ID != trace {
			t.Errorf("trace %#x: root span id %d != trace", trace, root.ID)
		}
		if names["wal.append"].Parent != root.ID {
			t.Errorf("trace %#x: append not parented to root", trace)
		}
		if names["drain.publish"].Parent != root.ID {
			t.Errorf("trace %#x: publish not linked to root", trace)
		}
		if names["visible"].Parent != names["drain.publish"].ID {
			t.Errorf("trace %#x: visible not parented to publish", trace)
		}
	}

	b, err := tr.chromeTraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("export is not valid trace_event JSON: %v", err)
	}
	traced := 0
	for _, ev := range doc.TraceEvents {
		if ev.Args["trace"] != nil {
			traced++
		}
	}
	if traced != len(spans) {
		t.Errorf("%d exported events carry a trace arg, want %d", traced, len(spans))
	}
}

// TestTraceNilAndDisabledFastPaths: every trace-link call is safe and inert
// on a nil tracer, a disabled tracer, and the nil spans they return.
func TestTraceNilAndDisabledFastPaths(t *testing.T) {
	var nilTr *Tracer
	if sp := nilTr.StartLinked("x", "y", 1, 2); sp != nil {
		t.Error("nil tracer StartLinked returned a span")
	}
	if sp := nilTr.Start("x", "y"); sp != nil {
		t.Error("nil tracer Start returned a span")
	}

	r := newRegistry()
	tr := r.Tracer() // never enabled
	sp := tr.StartTrace("x", "y")
	if sp != nil {
		t.Fatal("disabled tracer StartTrace returned a span")
	}
	// The values a disabled site stores and later hands to StartLinked.
	if sp.TraceID() != 0 || sp.ID() != 0 {
		t.Error("nil span reports nonzero identity")
	}
	sp.Child("c").End()
	sp.OnLane(3).End()
	if got := tr.StartLinked("x", "y", sp.TraceID(), sp.ID()); got != nil {
		t.Error("disabled tracer StartLinked returned a span")
	}
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
