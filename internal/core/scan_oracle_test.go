package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path"
	"reflect"
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/recorder"
)

// Whole-slice oracles of the scan's per-record folds: each walks one rank's
// materialized records on its own, the way the analysis passes did before
// the scan fused them into one pass per rank.

// attributeOrigins computes, for every record in a rank stream, the layer
// of the outermost enclosing library-layer record (by time containment) and
// the stream index of the innermost one (the "phase").
func attributeOrigins(rs []recorder.Record) ([]recorder.Layer, []int) {
	origins := make([]recorder.Layer, len(rs))
	phases := make([]int, len(rs))
	var stack originStack
	for i := range rs {
		origins[i], phases[i] = stack.step(i, &rs[i])
	}
	return origins, phases
}

// censusRank tallies one rank's metadata operations into c.
func censusRank(rs []recorder.Record, c *Census) {
	origins, _ := attributeOrigins(rs)
	for i := range rs {
		r := &rs[i]
		if !r.IsMetadataOp() {
			continue
		}
		origin := originName(origins[i])
		m, ok := c.Counts[origin]
		if !ok {
			m = make(map[recorder.Func]int)
			c.Counts[origin] = m
		}
		m[r.Func]++
	}
}

// oracleMetaEvent is one metadata operation as the oracles see it: the
// operation itself, path included, rather than the scan's index into a
// path table.
type oracleMetaEvent struct {
	ref      MetaOpRef
	mutation bool
	kind     MetaConflictKind // valid when mutation
}

// metaEventsRank collects one rank's metadata events with create-probe
// suppression: it remembers the last stat-family use per path and drops it
// if the rank's next record naming the path is a creating open; any other
// such record consumes the probe. Failed opens are skipped. Suppressed
// events are returned with an empty Path.
func metaEventsRank(rs []recorder.Record) []oracleMetaEvent {
	pendingStat := make(map[string]int) // path -> index into local list
	var local []oracleMetaEvent
	for i := range rs {
		r := &rs[i]
		if r.Layer != recorder.LayerPOSIX {
			continue
		}
		if r.IsOpenOp() && r.Arg(2) < 0 {
			continue // failed open is not a dependency carrier
		}
		creating := r.IsOpenOp() && int(r.Arg(0))&recorder.OCreat != 0
		if idx, ok := pendingStat[r.Path]; ok {
			if creating {
				local[idx].ref.Path = "" // mark dropped
			}
			delete(pendingStat, r.Path)
		}
		delete(pendingStat, r.Path2)
		ref := MetaOpRef{Rank: r.Rank, T: r.TStart, TEnd: r.TEnd, Func: r.Func, Path: r.Path}
		switch {
		case creating:
			local = append(local, oracleMetaEvent{ref: ref, mutation: true, kind: CreateUse})
			if int(r.Arg(0))&recorder.OTrunc != 0 {
				local = append(local, oracleMetaEvent{ref: ref, mutation: true, kind: ResizeUse})
			}
			if dir := path.Dir(r.Path); dir != "/" && dir != "." {
				dref := ref
				dref.Path = dir
				local = append(local, oracleMetaEvent{ref: dref})
			}
		case r.IsOpenOp():
			local = append(local, oracleMetaEvent{ref: ref})
		case r.Func == recorder.FuncMkdir:
			local = append(local, oracleMetaEvent{ref: ref, mutation: true, kind: CreateUse})
		case r.Func == recorder.FuncUnlink || r.Func == recorder.FuncRemove:
			local = append(local, oracleMetaEvent{ref: ref, mutation: true, kind: RemoveUse})
		case r.Func == recorder.FuncRename:
			local = append(local, oracleMetaEvent{ref: ref, mutation: true, kind: RemoveUse})
			dst := ref
			dst.Path = r.Path2
			local = append(local, oracleMetaEvent{ref: dst, mutation: true, kind: CreateUse})
		case r.Func == recorder.FuncTruncate:
			local = append(local, oracleMetaEvent{ref: ref, mutation: true, kind: ResizeUse})
		case r.Func == recorder.FuncStat || r.Func == recorder.FuncLstat ||
			r.Func == recorder.FuncAccess || r.Func == recorder.FuncOpendir:
			local = append(local, oracleMetaEvent{ref: ref})
			pendingStat[r.Path] = len(local) - 1
		}
	}
	return local
}

// metaConflictsOracle runs metaEventsRank over every rank, groups the
// events per path in rank order, sorts each path's list by time and scans
// it.
func metaConflictsOracle(tr *recorder.Trace) []MetaConflict {
	events := make(map[string][]oracleMetaEvent)
	for _, rs := range tr.PerRank {
		for _, e := range metaEventsRank(rs) {
			if p := e.ref.Path; p != "" && p != "/" {
				events[p] = append(events[p], e)
			}
		}
	}
	var out []MetaConflict
	for p, evs := range events {
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].ref.T < evs[j].ref.T })
		out = append(out, metaConflictsForPathOracle(p, evs)...)
	}
	sortMetaConflicts(out)
	return out
}

// metaConflictsForPathOracle scans one path's events, sorted by time, for
// cross-process (mutation, use) pairs: for each use, every mutation kind
// of the most recent earlier mutation by another rank.
func metaConflictsForPathOracle(p string, evs []oracleMetaEvent) []MetaConflict {
	var out []MetaConflict
	for i, e := range evs {
		if e.mutation {
			continue
		}
		for j := i - 1; j >= 0; j-- {
			m := evs[j]
			if !m.mutation || m.ref.Rank == e.ref.Rank {
				continue
			}
			for k := j; k >= 0; k-- {
				mk := evs[k]
				if !mk.mutation || mk.ref.Rank != m.ref.Rank || mk.ref.T != m.ref.T {
					break
				}
				out = append(out, MetaConflict{Kind: mk.kind, Path: p, Mutation: mk.ref, Use: e.ref})
			}
			break
		}
	}
	return out
}

// checkScanOracles compares a scan at one and two workers with
// the whole-slice oracles: census, metadata conflicts, record count and
// call counters.
func checkScanOracles(t *testing.T, label string, tr *recorder.Trace) {
	t.Helper()
	wantCensus := &Census{Counts: make(map[string]map[recorder.Func]int)}
	wantCalls := make(map[recorder.Layer]map[recorder.Func]int)
	for _, rs := range tr.PerRank {
		censusRank(rs, wantCensus)
		for i := range rs {
			countCall(wantCalls, rs[i].Layer, rs[i].Func, 1)
		}
	}
	wantMeta := metaConflictsOracle(tr)
	for _, w := range []int{1, 2} {
		how := fmt.Sprintf("%s workers=%d", label, w)
		sc, err := ScanTraceCtx(context.Background(), tr, w)
		if err != nil {
			t.Fatalf("%s: %v", how, err)
		}
		if !reflect.DeepEqual(sc.Census, wantCensus) {
			t.Errorf("%s: census %v, oracle %v", how, sc.Census.Counts, wantCensus.Counts)
		}
		if sc.Records != tr.NumRecords() || !reflect.DeepEqual(sc.Calls, wantCalls) {
			t.Errorf("%s: %d records, calls %v; want %d, %v", how, sc.Records, sc.Calls, tr.NumRecords(), wantCalls)
		}
		got, err := sc.MetaConflictsCtx(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, wantMeta) {
			t.Errorf("%s: metadata conflicts\n%v\noracle\n%v", how, got, wantMeta)
		}
	}
}

// TestScanMatchesWholeSliceOraclesRegistry: for every registry app, the
// fused per-record folds reproduce the whole-slice census and metadata
// oracles.
func TestScanMatchesWholeSliceOraclesRegistry(t *testing.T) {
	for _, name := range apps.Names() {
		cfg, _ := apps.Lookup(name)
		res, err := apps.Execute(cfg, apps.Options{Ranks: 8, PPN: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		checkScanOracles(t, name, res.Trace)
	}
}

// TestPropertyScanMatchesWholeSliceOracles: the same on random traces,
// whose metadata operations touch a few shared paths in random order.
func TestPropertyScanMatchesWholeSliceOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 60; trial++ {
		checkScanOracles(t, fmt.Sprintf("trial %d", trial), randomTrace(rng))
	}
}

// TestScanCallsOutOfRangeCodes: records whose Layer or Func code lies
// outside the recorder's tables (a damaged but decodable trace can carry
// them) are tallied in Scan.Calls and the census exactly like in-range
// ones, at every worker count.
func TestScanCallsOutOfRangeCodes(t *testing.T) {
	odd := recorder.Layer(recorder.NumLayers() + 5)
	big := recorder.Func(recorder.NumFuncs() + 3)
	rec := func(rank int32, t uint64, l recorder.Layer, f recorder.Func, path string) recorder.Record {
		return recorder.Record{Rank: rank, Layer: l, Func: f, TStart: t, TEnd: t + 1, Path: path}
	}
	tr := &recorder.Trace{Meta: recorder.Meta{App: "odd", Ranks: 3}, PerRank: [][]recorder.Record{
		{
			rec(0, 1, recorder.LayerPOSIX, big, "/a"),
			rec(0, 3, recorder.LayerPOSIX, recorder.FuncStat, "/a"),
			rec(0, 5, odd, recorder.FuncH5Fcreate, "/a"),
			rec(0, 7, recorder.LayerPOSIX, ^recorder.Func(0), ""),
		},
		{
			// An out-of-range library layer encloses a stat: the census
			// attributes it to that layer's origin name.
			{Rank: 1, Layer: odd, Func: big, TStart: 1, TEnd: 100},
			rec(1, 2, recorder.LayerPOSIX, recorder.FuncStat, "/b"),
			rec(1, 4, recorder.LayerPOSIX, recorder.FuncLstat, "/b"),
			rec(1, 6, ^recorder.Layer(0), ^recorder.Func(0), "/b"),
		},
		{
			rec(2, 1, recorder.LayerMPI, big, ""),
			rec(2, 3, recorder.LayerPOSIX, recorder.FuncStat, "/a"),
		},
	}}
	checkScanOracles(t, "out-of-range codes", tr)
	sc, err := ScanTraceCtx(context.Background(), tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := sc.Calls[recorder.LayerPOSIX][big] + sc.Calls[odd][big] + sc.Calls[odd][recorder.FuncH5Fcreate] +
		sc.Calls[^recorder.Layer(0)][^recorder.Func(0)]; n != 4 {
		t.Fatalf("out-of-range calls counted %d times, want 4: %v", n, sc.Calls)
	}
}

// TestCallTableOverflowSpills: a dense cell never wraps; counts past
// int32 continue in the map and sum back exactly.
func TestCallTableOverflowSpills(t *testing.T) {
	ct := newCallTable()
	ct.add(recorder.LayerPOSIX, recorder.FuncWrite, math.MaxInt32-1)
	ct.add(recorder.LayerPOSIX, recorder.FuncWrite, 5)
	ct.add(recorder.LayerPOSIX, recorder.FuncWrite, 1)
	got := 0
	ct.each(func(l recorder.Layer, f recorder.Func, n int) {
		if l != recorder.LayerPOSIX || f != recorder.FuncWrite {
			t.Fatalf("count under (%v, %v)", l, f)
		}
		got += n
	})
	if want := math.MaxInt32 + 5; got != want {
		t.Fatalf("total %d, want %d", got, want)
	}
}
