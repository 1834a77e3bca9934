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
// The cache is keyed by source identity — the *recorder.Trace for
// slice-backed extraction, any caller-chosen key for cursor-backed
// extraction — holds at most extractCacheCap entries, and evicts in
// insertion (FIFO) order — analysis
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
	byTr  map[any]*extractionEntry
	order []any // insertion order, for FIFO eviction
}

var extractions = extractionCache{byTr: make(map[any]*extractionEntry)}

// acquire returns the trace's entry, creating (and possibly evicting) under
// the lock. The extraction itself runs outside the lock, guarded by the
// entry's once, so concurrent callers for the same trace coalesce into a
// single extraction while other traces proceed independently.
func (c *extractionCache) acquire(tr any) *extractionEntry {
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

// remove evicts key's entry; when e is non-nil, only if the entry is still
// e (a failed extraction must not evict a newer one for the same key).
func (c *extractionCache) remove(key any, e *extractionEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.removeLocked(key, e)
}

// removeLocked is remove with c.mu held. slices.Delete zeroes the vacated
// tail slot, so the order slice's backing array does not keep the removed
// key — for slice-backed extraction a whole trace — alive.
func (c *extractionCache) removeLocked(key any, e *extractionEntry) {
	if cur, ok := c.byTr[key]; !ok || (e != nil && cur != e) {
		return
	}
	delete(c.byTr, key)
	if i := slices.Index(c.order, key); i >= 0 {
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

// ExtractCursorsSharedCtx is ExtractCursorsCtx through the cache: key
// identifies the underlying trace source (one key per opened directory —
// e.g. the colfmt DirReader), so repeated analyses of the same mapped trace
// share one extraction without ever materializing []Record. Cursors are
// single-use: they are consumed only on a cache miss, and concurrent
// callers for the same key coalesce into a single walk.
func ExtractCursorsSharedCtx(ctx context.Context, key any, cursors []RecordCursor, workers int) ([]*FileAccesses, error) {
	e := extractions.acquire(key)
	e.once.Do(func() {
		e.fas, e.err = ExtractCursorsCtx(ctx, cursors, workers)
		if e.err != nil {
			extractions.remove(key, e)
		}
	})
	return e.fas, e.err
}
