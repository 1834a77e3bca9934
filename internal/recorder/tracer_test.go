package recorder

import (
	"math/rand"
	"reflect"
	"testing"
)

// sliceTracer is the single-slice tracer: every record appended to one
// growing slice, Args copied per record. It is the oracle the chunked
// RankTracer must match.
type sliceTracer struct {
	rank    int32
	records []Record
}

func (t *sliceTracer) Emit(r Record, args []int64) {
	r.Rank = t.rank
	r.Args = nil
	if len(args) > 0 {
		r.Args = append([]int64(nil), args...)
	}
	t.records = append(t.records, r)
}

// emitter drives a RankTracer and its oracle with the same records.
type emitter struct {
	t      *testing.T
	rt     *RankTracer
	oracle *sliceTracer
	rng    *rand.Rand
	now    uint64
}

func (e *emitter) emit(r Record) {
	var args []int64
	switch n := e.rng.Intn(1000); {
	case n == 0:
		// Longer than an arena chunk.
		args = make([]int64, maxArenaChunk+e.rng.Intn(100))
	case n < 200:
		// No args.
	default:
		args = make([]int64, 1+e.rng.Intn(5))
	}
	for i := range args {
		args[i] = e.rng.Int63n(1 << 40)
	}
	// Something the oracle cannot see must not reach the tracer either.
	r.Args = []int64{-1}
	e.rt.Emit(r, args)
	e.oracle.Emit(r, args)
	for i := range args {
		args[i] = -2 // the caller reuses its slice
	}
	if got, want := e.rt.Len(), len(e.oracle.records); got != want {
		e.t.Fatalf("Len() = %d after %d emits", got, want)
	}
}

func (e *emitter) tick() uint64 {
	e.now += uint64(e.rng.Intn(3)) // 0 makes equal-TStart ties
	return e.now
}

// leaf emits one POSIX call.
func (e *emitter) leaf() {
	ts := e.tick()
	e.emit(Record{Layer: LayerPOSIX, Func: FuncPwrite, TStart: ts, TEnd: e.tick(), Path: "/f"})
}

// frame emits a library call around nested calls, at its exit: after
// them in emission order, before them in entry order.
func (e *emitter) frame(depth int) {
	ts := e.now // the first nested call starts at the same stamp
	for k := e.rng.Intn(4); k >= 0; k-- {
		if depth < 3 && e.rng.Intn(3) == 0 {
			e.frame(depth + 1)
		} else {
			e.leaf()
		}
	}
	e.emit(Record{Layer: LayerHDF5, Func: FuncH5Dwrite, TStart: ts, TEnd: e.tick(), Path: "/f", Path2: "d"})
}

// mpi emits a run of MPI calls sharing one entry stamp, which must keep
// their emission (program) order.
func (e *emitter) mpi() {
	ts := e.tick()
	for k := e.rng.Intn(3); k >= 0; k-- {
		e.emit(Record{Layer: LayerMPI, Func: FuncMPISend, TStart: ts, TEnd: ts + uint64(e.rng.Intn(2))})
	}
}

// The chunked tracer, flattened and sorted by NewTrace, matches the
// single-slice oracle on random emission sequences: nested frames,
// equal-TStart ties, MPI runs, records across chunk and arena boundaries.
func TestRankTracerMatchesSliceOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const ranks = 3
		tracers := make([]*RankTracer, ranks)
		oracles := make([]*sliceTracer, ranks)
		for r := range tracers {
			tracers[r] = NewRankTracer(r)
			oracles[r] = &sliceTracer{rank: int32(r)}
			e := &emitter{t: t, rt: tracers[r], oracle: oracles[r], rng: rng}
			// Rank 0 stays inside the first chunk; the others cross many.
			n := 5
			if r > 0 {
				n = rng.Intn(3 * maxChunk * (r + 1))
			}
			for e.rt.Len() < n {
				switch rng.Intn(3) {
				case 0:
					e.leaf()
				case 1:
					e.frame(0)
				default:
					e.mpi()
				}
			}
		}
		got := NewTrace(Meta{}, tracers)
		for r, o := range oracles {
			sortRank(o.records)
			if !reflect.DeepEqual(got.PerRank[r], o.records) {
				t.Fatalf("seed %d rank %d: chunked tracer differs from the oracle (%d vs %d records)",
					seed, r, len(got.PerRank[r]), len(o.records))
			}
			if cap(got.PerRank[r]) != len(got.PerRank[r]) {
				t.Fatalf("seed %d rank %d: flattened slice has cap %d for %d records", seed, r, cap(got.PerRank[r]), len(got.PerRank[r]))
			}
			if n := tracers[r].Len(); n != 0 {
				t.Fatalf("seed %d rank %d: tracer still holds %d records after NewTrace", seed, r, n)
			}
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// A record's Args is a capacity-capped window of the arena: appending to
// it cannot overwrite the next record's arguments.
func TestRankTracerArgsWindowsAreCapped(t *testing.T) {
	rt := NewRankTracer(0)
	rt.Emit(Record{Func: FuncWrite, TStart: 1, TEnd: 2}, []int64{1, 2})
	rt.Emit(Record{Func: FuncWrite, TStart: 3, TEnd: 4}, []int64{3, 4})
	rs := NewTrace(Meta{}, []*RankTracer{rt}).PerRank[0]
	if cap(rs[0].Args) != 2 {
		t.Fatalf("first record's Args has cap %d, want 2", cap(rs[0].Args))
	}
	_ = append(rs[0].Args, 99)
	if rs[1].Args[0] != 3 {
		t.Fatalf("appending to one record's Args changed the next: %v", rs[1].Args)
	}
}
