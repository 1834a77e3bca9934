package recorder

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"unsafe"
)

// sliceTracer is the single-slice tracer: every record appended to one
// growing slice, Args copied per record. With sortRank and alignRanks it
// is the pipeline the chunked, pointer-free RankTracer and NewTrace must
// match.
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
		args = make([]int64, MaxArgs)
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
	if got, want := e.rt.count(), len(e.oracle.records); got != want {
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

// sortRank is the assembly sort as a sort.SliceStable over records.
func sortRank(rs []Record) {
	sort.SliceStable(rs, func(a, b int) bool {
		if rs[a].TStart != rs[b].TStart {
			return rs[a].TStart < rs[b].TStart
		}
		if rs[a].Layer == LayerMPI || rs[b].Layer == LayerMPI {
			return false
		}
		return rs[a].TEnd > rs[b].TEnd
	})
}

// alignRanks shifts every sorted rank to its first barrier's exit,
// clamping at zero.
func alignRanks(perRank [][]Record) {
	for _, rs := range perRank {
		var off uint64
		for i := range rs {
			if rs[i].Layer == LayerMPI && rs[i].Func == FuncMPIBarrier {
				off = rs[i].TEnd
				break
			}
		}
		for i := range rs {
			rs[i].TStart, rs[i].TEnd = sub0(rs[i].TStart, off), sub0(rs[i].TEnd, off)
		}
	}
}

// The chunked tracer, assembled by NewTrace, matches the single-slice
// oracle sorted and aligned on random emission sequences: nested frames,
// equal-TStart ties, MPI runs, records across chunk boundaries.
func TestRankTracerMatchesSliceOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const ranks = 3
		tracers := make([]*RankTracer, ranks)
		oracle := make([][]Record, ranks)
		for r := range tracers {
			tracers[r] = NewRankTracer(r)
			o := &sliceTracer{rank: int32(r)}
			e := &emitter{t: t, rt: tracers[r], oracle: o, rng: rng, now: 1000}
			ts := e.tick()
			e.emit(Record{Layer: LayerMPI, Func: FuncMPIBarrier, TStart: ts, TEnd: ts + 500})
			// Rank 0 stays inside the first chunk; the others cross many.
			n := 5
			if r > 0 {
				n = rng.Intn(3 * maxChunk * (r + 1))
			}
			for e.rt.count() < n {
				switch rng.Intn(3) {
				case 0:
					e.leaf()
				case 1:
					e.frame(0)
				default:
					e.mpi()
				}
			}
			oracle[r] = o.records
			sortRank(oracle[r])
		}
		alignRanks(oracle)
		got, err := NewTrace(Meta{}, tracers)
		if err != nil {
			t.Fatal(err)
		}
		for r, want := range oracle {
			if rs := got.Records(r); !reflect.DeepEqual(rs, want) {
				t.Fatalf("seed %d rank %d: chunked tracer differs from the oracle (%d vs %d records)",
					seed, r, len(rs), len(want))
			}
			if cap(got.PerRank[r]) != len(got.PerRank[r]) {
				t.Fatalf("seed %d rank %d: flattened log has cap %d for %d records", seed, r, cap(got.PerRank[r]), len(got.PerRank[r]))
			}
			if n := tracers[r].count(); n != 0 {
				t.Fatalf("seed %d rank %d: tracer still holds %d records after NewTrace", seed, r, n)
			}
		}
	}
}

// Materialized records do not share Args: appending to one record's Args
// cannot overwrite the next record's arguments.
func TestRankTracerArgsWindowsAreCapped(t *testing.T) {
	rt := NewRankTracer(0)
	rt.Emit(Record{Func: FuncWrite, TStart: 1, TEnd: 2}, []int64{1, 2})
	rt.Emit(Record{Func: FuncWrite, TStart: 3, TEnd: 4}, []int64{3, 4})
	tr, err := TraceOf(Meta{}, []*RankTracer{rt})
	if err != nil {
		t.Fatal(err)
	}
	rs := tr.Records(0)
	if cap(rs[0].Args) != 2 {
		t.Fatalf("first record's Args has cap %d, want 2", cap(rs[0].Args))
	}
	_ = append(rs[0].Args, 99)
	if rs[1].Args[0] != 3 {
		t.Fatalf("appending to one record's Args changed the next: %v", rs[1].Args)
	}
}

// A log entry stays 32 bytes: a rank log's memory is entries times this.
func TestEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(Entry{}); n != 32 {
		t.Fatalf("Entry is %d bytes, want 32", n)
	}
}

// A rank log that outgrows its arg bytes fails both assembly and a
// decoder's TraceOf with the first emit it could not keep, rather than
// dropping that emit and every later one unreported.
func TestArgBytesLimitFailsTrace(t *testing.T) {
	defer func(n uint64) { maxArgBytes = n }(maxArgBytes)
	maxArgBytes = 2000
	args := make([]int64, MaxArgs)
	for i := range args {
		args[i] = math.MinInt64 // a 10-byte varint: 640 arg bytes per record
	}
	// The fourth emit would start past 2000 - 640 bytes.
	const kept = 3
	log := func() *RankTracer {
		rt := NewRankTracer(0)
		rt.Emit(Record{Layer: LayerMPI, Func: FuncMPIBarrier, TStart: 1, TEnd: 2}, nil)
		for i := range kept + 2 {
			rt.Emit(Record{Layer: LayerPOSIX, Func: FuncWrite, TStart: uint64(3 + i), TEnd: uint64(4 + i)}, args)
		}
		return rt
	}
	for name, build := range map[string]func(*RankTracer) (*Trace, error){
		"NewTrace": func(rt *RankTracer) (*Trace, error) { return NewTrace(Meta{}, []*RankTracer{rt}) },
		"TraceOf":  func(rt *RankTracer) (*Trace, error) { return TraceOf(Meta{}, []*RankTracer{rt}) },
	} {
		tr, err := build(log())
		var te *TraceError
		if tr != nil || !errors.As(err, &te) {
			t.Fatalf("%s: got a trace %t, error %v; want no trace and a *TraceError", name, tr != nil, err)
		}
		if te.Record != 1+kept {
			t.Fatalf("%s: error names record %d, want %d: %v", name, te.Record, 1+kept, te)
		}
	}
}
