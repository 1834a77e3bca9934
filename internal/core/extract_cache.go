package core

import (
	"context"
	"slices"
	"sync"

	"repro/internal/recorder"
)

// The extraction cache shares one extraction per trace across every
// analysis surface (conflicts, patterns, reports, SVG/CSV figures). Traces
// are immutable once recorded and FileAccesses are never mutated by
// consumers (patterns and reports build their own index slices), so sharing
// is read-only safe; see DESIGN.md §11.
//
// The cache is keyed by trace identity (the *recorder.Trace), holds at most
// extractCacheCap entries, and evicts in insertion (FIFO) order — analysis
// sweeps visit each trace in bursts and never revisit old ones, so FIFO
// behaves like LRU here without the bookkeeping.

const extractCacheCap = 32

type extractionEntry struct {
	once sync.Once
	fas  []*FileAccesses
	err  error
}

type extractionCache struct {
	mu    sync.Mutex
	byTr  map[*recorder.Trace]*extractionEntry
	order []*recorder.Trace // insertion order, for FIFO eviction
}

var extractions = extractionCache{byTr: make(map[*recorder.Trace]*extractionEntry)}

// acquire returns the trace's entry, creating (and possibly evicting) under
// the lock. The extraction itself runs outside the lock, guarded by the
// entry's once, so concurrent callers for the same trace coalesce into a
// single extraction while other traces proceed independently.
func (c *extractionCache) acquire(tr *recorder.Trace) *extractionEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byTr[tr]; ok {
		extractCacheHits.Inc()
		return e
	}
	extractCacheMisses.Inc()
	if len(c.order) >= extractCacheCap {
		c.removeLocked(c.order[0], nil)
		extractCacheEvictions.Inc()
	}
	e := &extractionEntry{}
	c.byTr[tr] = e
	c.order = append(c.order, tr)
	return e
}

// remove evicts tr's entry; when e is non-nil, only if the entry is still
// e (a failed extraction must not evict a newer one for the same trace).
func (c *extractionCache) remove(tr *recorder.Trace, e *extractionEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.removeLocked(tr, e)
}

// removeLocked is remove with c.mu held. slices.Delete zeroes the vacated
// tail slot, so the order slice's backing array does not keep the removed
// trace alive.
func (c *extractionCache) removeLocked(tr *recorder.Trace, e *extractionEntry) {
	if cur, ok := c.byTr[tr]; !ok || (e != nil && cur != e) {
		return
	}
	delete(c.byTr, tr)
	if i := slices.Index(c.order, tr); i >= 0 {
		c.order = slices.Delete(c.order, i, i+1)
	}
}

// ExtractSharedCtx is the one extraction entry point: the first call for a
// trace extracts it (§5.1 offset reconstruction plus the §5.2 To/Tc
// annotation, on a pool of workers; 1 extracts serially) and every later
// call returns the same slice, which callers must treat as read-only. A
// failed (cancelled) extraction is dropped from the cache so the error does
// not poison later calls.
func ExtractSharedCtx(ctx context.Context, tr *recorder.Trace, workers int) ([]*FileAccesses, error) {
	e := extractions.acquire(tr)
	e.once.Do(func() {
		e.fas, e.err = extract(ctx, tr, workers)
		if e.err != nil {
			extractions.remove(tr, e)
		}
	})
	return e.fas, e.err
}

// InvalidateExtraction evicts a trace's cached extraction. Benchmarks use it
// to measure the cold path and equivalence tests to force a re-extraction;
// production code never needs it because traces are immutable.
func InvalidateExtraction(tr *recorder.Trace) {
	extractions.remove(tr, nil)
}
