package core

import (
	"context"
	"slices"
	"sync"

	"repro/internal/recorder"
)

// The extraction cache shares one scan per trace (scan.go: the extraction
// plus the census, call counters, metadata events and MPI events) across
// every analysis surface (conflicts, patterns, census, metadata conflicts,
// happens-before, reports, SVG/CSV figures). Traces are immutable once
// recorded and no consumer mutates a scan (patterns and reports build their
// own index slices, happens-before its own clocks), so sharing is read-only
// safe; see DESIGN.md §11.
//
// The cache is keyed by trace identity (the *recorder.Trace), holds at most
// extractCacheCap entries, and evicts in insertion (FIFO) order — analysis
// sweeps visit each trace in bursts and never revisit old ones, so FIFO
// behaves like LRU here without the bookkeeping.

const extractCacheCap = 32

type extractionEntry struct {
	once sync.Once
	sc   *Scan
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

// ScanTraceCtx returns the trace's shared scan: the first call for a trace
// folds every rank stream once on a pool of workers (1 folds serially) and
// every later call returns the same Scan, which callers must treat as
// read-only. A failed (cancelled) scan is dropped from the cache so the
// error does not poison later calls.
func ScanTraceCtx(ctx context.Context, tr *recorder.Trace, workers int) (*Scan, error) {
	e := extractions.acquire(tr)
	e.once.Do(func() {
		e.sc, e.err = scanTrace(ctx, tr, workers)
		if e.err != nil {
			extractions.remove(tr, e)
		}
	})
	return e.sc, e.err
}

// ExtractSharedCtx is the one extraction entry point: the trace's shared
// scan's files (§5.1 offset reconstruction plus the per-rank open, close
// and commit times §5.2's record expansion searches, sorted by path),
// which callers must treat as read-only.
func ExtractSharedCtx(ctx context.Context, tr *recorder.Trace, workers int) ([]*FileAccesses, error) {
	sc, err := ScanTraceCtx(ctx, tr, workers)
	if err != nil {
		return nil, err
	}
	return sc.Files, nil
}

// InvalidateExtraction evicts a trace's cached scan. Benchmarks use it
// to measure the cold path and equivalence tests to force a re-extraction;
// production code never needs it because traces are immutable.
func InvalidateExtraction(tr *recorder.Trace) {
	extractions.remove(tr, nil)
}
