package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// hammer drives one registry through a deterministic concurrent workload:
// every goroutine touches the same instruments with values derived only
// from its loop index, so the end state is independent of interleaving.
func hammer(r *Registry, goroutines, iters int) {
	c := r.Counter("test.ops")
	g := r.Gauge("test.depth")
	hi := r.Gauge("test.high")
	h := r.Histogram("test.sizes")
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				hi.SetMax(int64(i % 17))
				h.Observe(int64(i % 5000))
			}
		}(w)
	}
	wg.Wait()
}

// TestConcurrentHammer checks, under -race, that parallel instrument
// updates lose nothing: counts, histogram totals and the high-water mark
// are exact after an 8-goroutine hammering.
func TestConcurrentHammer(t *testing.T) {
	r := newRegistry()
	const goroutines, iters = 8, 2000
	hammer(r, goroutines, iters)

	if got, want := r.Counter("test.ops").value(), int64(goroutines*iters); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got := r.Gauge("test.depth").value(); got != 0 {
		t.Errorf("balanced gauge = %d, want 0", got)
	}
	if got := r.Gauge("test.high").value(); got != 16 {
		t.Errorf("high-water gauge = %d, want 16", got)
	}
	hs := r.Histogram("test.sizes").Snapshot()
	if got, want := hs.Count, int64(goroutines*iters); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
	var inBuckets int64
	for _, b := range hs.Buckets {
		inBuckets += b.N
	}
	if inBuckets+hs.Zero != hs.Count {
		t.Errorf("buckets (%d) + zero (%d) != count (%d)", inBuckets, hs.Zero, hs.Count)
	}
	// i%5000 hits 0 once per goroutine per 5000 iterations: iters/5000
	// rounded up times goroutines... with iters=2000 only i=0 is zero.
	if hs.Zero != goroutines {
		t.Errorf("zero bucket = %d, want %d", hs.Zero, goroutines)
	}
}

// TestSnapshotDeterminism runs the identical workload on two fresh
// registries and requires byte-identical JSON exports.
func TestSnapshotDeterminism(t *testing.T) {
	export := func() []byte {
		r := newRegistry()
		hammer(r, 4, 500)
		r.Counter("zzz.registered.untouched") // zero-valued keys still export
		s := r.Snapshot()
		j, err := s.encodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	j1 := export()
	j2 := export()
	if !bytes.Equal(j1, j2) {
		t.Errorf("snapshot JSON differs between identical runs:\n%s\n---\n%s", j1, j2)
	}
	var round Snapshot
	if err := json.Unmarshal(j1, &round); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if round.Counters["zzz.registered.untouched"] != 0 {
		t.Error("untouched counter missing from snapshot")
	}
}

// TestBucketOf pins the bucket function, including the zero/negative edge.
func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, -1}, {0, -1}, {1, 0}, {2, 1}, {3, 1}, {4, 2},
		{1023, 9}, {1024, 10}, {1 << 40, 40},
	}
	for _, c := range cases {
		if got := BucketOf(c.v); got != c.want {
			t.Errorf("BucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

// TestDisabledPathAllocatesZero asserts the near-free contract: with the
// registry disabled, counter/gauge/histogram updates and span starts
// allocate nothing.
func TestDisabledPathAllocatesZero(t *testing.T) {
	r := newRegistry()
	c := r.Counter("off.counter")
	g := r.Gauge("off.gauge")
	h := r.Histogram("off.hist")
	r.SetEnabled(false)
	tr := r.Tracer() // never enabled
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(3)
		g.SetMax(9)
		h.Observe(4096)
		sp := tr.Start("noop", "test")
		sp.Child("inner").End()
		sp.OnLane(2).End()
	})
	if allocs != 0 {
		t.Errorf("disabled path allocates %.1f per op, want 0", allocs)
	}
	if c.value() != 0 || g.value() != 0 || h.Count() != 0 || tr.Len() != 0 {
		t.Error("disabled instruments recorded data")
	}
}

// TestResetAndReenable checks reset zeroes values but keeps registration,
// and that SetEnabled(true) restores collection.
func TestResetAndReenable(t *testing.T) {
	r := newRegistry()
	c := r.Counter("x")
	c.Add(7)
	r.Histogram("h").Observe(10)
	r.reset()
	if c.value() != 0 {
		t.Errorf("counter after Reset = %d", c.value())
	}
	if n := r.Histogram("h").Count(); n != 0 {
		t.Errorf("histogram count after Reset = %d", n)
	}
	r.SetEnabled(false)
	c.Add(1)
	r.SetEnabled(true)
	c.Add(1)
	if c.value() != 1 {
		t.Errorf("counter = %d, want 1 (only the re-enabled Add)", c.value())
	}
	if _, ok := r.Snapshot().Counters["x"]; !ok {
		t.Error("Reset dropped the registration")
	}
}

// BenchmarkDisabledOverhead measures the no-op cost of a fully
// instrumented hot path with the registry disabled — the bound that lets
// instrumentation stay compiled into pfs and core. Run with -benchmem:
// allocs/op must be 0.
func BenchmarkDisabledOverhead(b *testing.B) {
	r := newRegistry()
	c := r.Counter("bench.counter")
	g := r.Gauge("bench.gauge")
	h := r.Histogram("bench.hist")
	r.SetEnabled(false)
	tr := r.Tracer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		g.Set(int64(i))
		h.Observe(int64(i))
		tr.Start("noop", "bench").End()
	}
}

// BenchmarkEnabledOverhead is the enabled-path counterpart, for the
// DESIGN.md §9 overhead table.
func BenchmarkEnabledOverhead(b *testing.B) {
	r := newRegistry()
	c := r.Counter("bench.counter")
	g := r.Gauge("bench.gauge")
	h := r.Histogram("bench.hist")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		g.Set(int64(i))
		h.Observe(int64(i))
	}
}
