// Package obs is the zero-dependency telemetry substrate of the repo: atomic
// counters, gauges, power-of-two histograms (the SizeHistogram bucketing
// idiom of internal/report, promoted to a shared concurrent type) and
// lightweight spans, hung off a process-wide Registry with deterministic
// JSON snapshot export.
//
// Design constraints, in order:
//
//  1. A disabled registry is near-free. Every instrument carries a pointer
//     to its registry's enabled flag; the hot-path methods are one atomic
//     load followed by an early return, allocate nothing, and are safe on
//     nil receivers. Instrumentation therefore stays on by default in tests
//     and can be compiled into the hottest loops (see the overhead
//     benchmark in obs_test.go and the instrumented/uninstrumented split of
//     BenchmarkAnalyzeParallel).
//  2. Snapshots are deterministic. Instruments export in sorted name order
//     and histograms in ascending bucket order, so two identical runs
//     produce byte-identical snapshot JSON — the property the paper's own
//     artifact comparisons (and our CI step) rely on.
//  3. Instruments are registered once and cached: Counter/Gauge/Histogram
//     lookups take a mutex, so callers hoist them into package-level vars
//     and the hot path never touches the registry map.
//
// Metric names are dot-separated lowercase paths, "<layer>.<noun>.<aspect>"
// (e.g. "pfs.op.write.cost_ns", "core.pool.tasks", "wal.ack.cost_ns");
// see DESIGN.md §9 for the full naming scheme.
package obs

import (
	"sync"
	"sync/atomic"
)

// Registry owns a namespace of instruments and one enabled flag they all
// share. The zero value is not usable; call newRegistry, or use Default for
// the process-wide registry.
type Registry struct {
	enabled atomic.Bool
	tracer  Tracer

	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// newRegistry creates an enabled registry with an (initially disabled)
// tracer.
func newRegistry() *Registry {
	r := &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
	r.enabled.Store(true)
	return r
}

var defaultRegistry = newRegistry()

// Default returns the process-wide registry that the instrumented layers
// (pfs, core, wal, consistency, experiments, the columnar codec) register
// their instruments on.
func Default() *Registry { return defaultRegistry }

// SetEnabled flips metric collection for every instrument of this registry.
// Spans are governed separately by the tracer's own flag.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// Tracer returns the registry's span tracer (disabled until its SetEnabled).
func (r *Registry) Tracer() *Tracer { return &r.tracer }

// Counter returns the named counter, creating it on first use. Callers
// should hoist the result into a package-level var; the lookup locks.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{on: &r.enabled}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{on: &r.enabled}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram()
		h.on = &r.enabled
		r.histograms[name] = h
	}
	return h
}

// reset zeroes every registered instrument (the names stay registered).
// CLIs call it after flag parsing so a -metrics snapshot covers exactly one
// invocation.
func (r *Registry) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.histograms {
		h.reset()
	}
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	on *atomic.Bool
	v  atomic.Int64
}

// Add adds n. Nil-safe; a disabled registry makes this one atomic load.
func (c *Counter) Add(n int64) {
	if c == nil || !c.on.Load() {
		return
	}
	c.v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// value returns the current count.
func (c *Counter) value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value (pool size, queue high-water
// mark).
type Gauge struct {
	on *atomic.Bool
	v  atomic.Int64
}

// Set stores v. Nil-safe; no-op when the registry is disabled.
func (g *Gauge) Set(v int64) {
	if g == nil || !g.on.Load() {
		return
	}
	g.v.Store(v)
}

// SetMax raises the gauge to v if v is larger (a running high-water mark).
func (g *Gauge) SetMax(v int64) {
	if g == nil || !g.on.Load() {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// value returns the current gauge value.
func (g *Gauge) value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is enough for any int64: bucket k covers [2^k, 2^(k+1)).
const histBuckets = 63

// Histogram buckets non-negative observations by power of two — bucket k
// covers [2^k, 2^(k+1)) — with a dedicated bucket for zero-valued
// observations (a zero-length access is not a [1,2) access; see the
// SizeHistogram fix in internal/report). Negative observations are clamped
// to the zero bucket. All methods are safe for concurrent use.
type Histogram struct {
	on      *atomic.Bool
	zero    atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// NewHistogram returns a standalone, always-enabled histogram — the form
// internal/report embeds. Registry-owned histograms share the registry's
// enabled flag instead.
func NewHistogram() *Histogram {
	h := &Histogram{}
	on := &atomic.Bool{}
	on.Store(true)
	h.on = on
	return h
}

// BucketOf returns the histogram bucket index for v: -1 for v <= 0 (the
// zero bucket), else floor(log2(v)), so bucket k covers [2^k, 2^(k+1)).
func BucketOf(v int64) int {
	if v <= 0 {
		return -1
	}
	b := -1
	for v > 0 {
		v >>= 1
		b++
	}
	return b
}

// Observe records one value. Nil-safe; no-op when the registry is disabled.
func (h *Histogram) Observe(v int64) {
	if h == nil || !h.on.Load() {
		return
	}
	h.count.Add(1)
	if v > 0 {
		h.sum.Add(v)
		h.buckets[BucketOf(v)].Add(1)
		return
	}
	h.zero.Add(1)
}

func (h *Histogram) reset() {
	h.zero.Store(0)
	h.count.Store(0)
	h.sum.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// Bucket is one occupied histogram bucket covering [Lo, Hi).
type Bucket struct {
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
	N  int64 `json:"n"`
}

// HistogramSnapshot is a point-in-time copy of a histogram: total
// observation count, sum over positive observations, the zero-or-negative
// tally, and the occupied power-of-two buckets in ascending order.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Zero    int64    `json:"zero,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram. Concurrent Observe calls may land between
// bucket reads; each bucket is individually consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Zero:  h.zero.Load(),
	}
	for k := 0; k < histBuckets; k++ {
		if n := h.buckets[k].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{Lo: 1 << k, Hi: 1 << (k + 1), N: n})
		}
	}
	return s
}
