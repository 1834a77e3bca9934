package core

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/recorder"
)

// randomSchedule runs a seeded random MPI schedule on the harness: message
// chains across distinct ranks and barriers, broadcasts and allreduces,
// with random compute between steps so ranks drift apart. Every rank draws
// the same schedule, and sends are eager, so it cannot deadlock.
func randomSchedule(t *testing.T, ranks int, seed int64) *recorder.Trace {
	t.Helper()
	res, err := harness.Run(harness.Config{Ranks: ranks, Seed: uint64(seed), Semantics: pfs.Strong},
		recorder.Meta{App: "hb-random"}, func(ctx *harness.Ctx) error {
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 40; step++ {
				ctx.Compute(0, 40)
				kind := rng.Intn(6)
				if ranks < 2 && kind < 3 {
					kind = 3
				}
				switch kind {
				case 0, 1, 2:
					chain := rng.Perm(ranks)[:2+rng.Intn(min(ranks, 4)-1)]
					tag := rng.Intn(3)
					for j, r := range chain {
						if r != ctx.Rank {
							continue
						}
						if j > 0 {
							ctx.MPI.Recv(chain[j-1], tag)
						}
						if j+1 < len(chain) {
							ctx.MPI.Send(chain[j+1], tag, []byte{byte(step)})
						}
					}
				case 3:
					ctx.MPI.Barrier()
				case 4:
					ctx.MPI.Bcast(rng.Intn(ranks), []byte{byte(step)})
				case 5:
					ctx.MPI.Allreduce(int64(ctx.Rank), mpi.OpSum)
				}
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

// TestBuildHBMatchesOracleRandomSchedules covers point-to-point chains,
// which only one registry application uses, mixed with collectives.
func TestBuildHBMatchesOracleRandomSchedules(t *testing.T) {
	for _, ranks := range []int{1, 2, 3, 5, 8} {
		for seed := int64(1); seed <= 6; seed++ {
			tr := randomSchedule(t, ranks, seed)
			if _, err := BuildHB(tr); err != nil {
				t.Fatalf("ranks=%d seed=%d: %v", ranks, seed, err)
			}
			if d := diffHBOracle(tr); d != "" {
				t.Fatalf("ranks=%d seed=%d: %s", ranks, seed, d)
			}
		}
	}
}

func mpiRecord(rank int, fn recorder.Func, t uint64, args ...int64) recorder.Record {
	return recorder.Record{Rank: int32(rank), Layer: recorder.LayerMPI, Func: fn, TStart: t, TEnd: t, Args: args}
}

// TestBuildHBForgedSequenceBoundedMemory feeds a forged trace in which all
// 200 barriers of each of 16 ranks carry sequence number 0, so one
// collective instance has 3,200 participants, several on each rank. The
// builder must return the typed error without materializing the
// participants' pairwise edges (half a gigabyte for the per-predecessor
// oracle, which this test therefore does not run).
func TestBuildHBForgedSequenceBoundedMemory(t *testing.T) {
	const ranks, barriers = 16, 200
	perRank := make([][]recorder.Record, ranks)
	for r := range ranks {
		for i := range barriers {
			// Rank 1 stamps each barrier first.
			ts := uint64(100*i + (r+ranks-1)%ranks)
			perRank[r] = append(perRank[r], mpiRecord(r, recorder.FuncMPIBarrier, ts, -1, 0, 0))
		}
	}
	tr := traceOf(recorder.Meta{}, perRank)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := BuildHB(tr)
	runtime.ReadMemStats(&after)
	const want = "core: predecessor {0 0} of {1 0} not yet processed (timestamps violate happens-before)"
	if err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 16<<20 {
		t.Fatalf("allocated %.1f MiB before the error, want under 16 MiB", float64(alloc)/(1<<20))
	}
}

func TestBuildHBReceiveWithoutSend(t *testing.T) {
	tr := traceOf(recorder.Meta{}, [][]recorder.Record{
		{mpiRecord(0, recorder.FuncMPISend, 10, 1, 7, 1)},
		{
			mpiRecord(1, recorder.FuncMPIRecv, 20, 0, 7, 1),
			mpiRecord(1, recorder.FuncMPIRecv, 30, 0, 7, 1),
		},
	})
	_, err := BuildHB(tr)
	const want = "core: receive 1 on rank 1 from 0 tag 7 has no matching send"
	if err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
	if d := diffHBOracle(tr); d != "" {
		t.Fatal(d)
	}
}

// TestBuildHBInvertedRank: a rank whose events go backwards in (tend,
// tstart) fails before any clock is built, naming its first inverted pair:
// the lowest rank first, then the lowest index. Rank 1's pair (1, 2) is
// inverted by end time and rank 2's pair (0, 1) by start time at an equal
// end time, so rank 1's pair is reported although rank 2's index is lower.
func TestBuildHBInvertedRank(t *testing.T) {
	tr := traceOf(recorder.Meta{}, [][]recorder.Record{
		{mpiRecord(0, recorder.FuncMPIBarrier, 10, -1, 0, 0)},
		{
			mpiRecord(1, recorder.FuncMPIBarrier, 10, -1, 0, 0),
			mpiRecord(1, recorder.FuncMPISend, 30, 2, 0, 1),
			mpiRecord(1, recorder.FuncMPISend, 20, 2, 0, 1),
		},
		{
			{Rank: 2, Layer: recorder.LayerMPI, Func: recorder.FuncMPIBarrier, TStart: 9, TEnd: 10, Args: []int64{-1, 0, 0}},
			{Rank: 2, Layer: recorder.LayerMPI, Func: recorder.FuncMPIRecv, TStart: 5, TEnd: 10, Args: []int64{1, 0, 1}},
			mpiRecord(2, recorder.FuncMPIRecv, 40, 1, 0, 1),
		},
	})
	_, err := BuildHB(tr)
	const want = "core: predecessor {1 1} of {1 2} not yet processed (timestamps violate happens-before)"
	if err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
	if d := diffHBOracle(tr); d != "" {
		t.Fatal(d)
	}
	tr.PerRank[1][2].TStart, tr.PerRank[1][2].TEnd = 30, 30
	_, err = BuildHB(tr)
	const want2 = "core: predecessor {2 0} of {2 1} not yet processed (timestamps violate happens-before)"
	if err == nil || err.Error() != want2 {
		t.Fatalf("error %v, want %q", err, want2)
	}
	if d := diffHBOracle(tr); d != "" {
		t.Fatal(d)
	}
}

// fuzzHBTrace decodes bytes into a small MPI trace: the first byte picks
// 1–8 ranks, then every 4 bytes make one record (at most 64) of send,
// receive, barrier, broadcast or allreduce with small arguments, stamped
// at or after the previous record of its rank; a delay byte of 0xf0 or
// more instead starts the record up to 8 before that record's end, which
// can invert the rank's timestamp order.
func fuzzHBTrace(data []byte) *recorder.Trace {
	fns := []recorder.Func{recorder.FuncMPISend, recorder.FuncMPIRecv,
		recorder.FuncMPIBarrier, recorder.FuncMPIBcast, recorder.FuncMPIAllreduce}
	if len(data) == 0 {
		return &recorder.Trace{}
	}
	ranks := 1 + int(data[0])%8
	perRank := make([][]recorder.Record, ranks)
	clock := make([]uint64, ranks)
	data = data[1:]
	for n := 0; n < 64 && len(data) >= 4; n++ {
		op, rank, arg, dt := data[0], int(data[1])%ranks, int64(data[2]), uint64(data[3])
		data = data[4:]
		fn := fns[int(op)%len(fns)]
		var args []int64
		switch fn {
		case recorder.FuncMPISend, recorder.FuncMPIRecv:
			args = []int64{arg % int64(ranks), arg / 64 % 2, 1} // peer, tag, bytes
		default:
			args = []int64{-1, 0, arg % 8} // root, bytes, sequence
		}
		start := clock[rank] + dt%8
		if dt >= 0xf0 {
			start = clock[rank] - min(clock[rank], dt%8+1)
		}
		rec := mpiRecord(rank, fn, start, args...)
		rec.TEnd += uint64(op) / 8 % 4
		clock[rank] = rec.TEnd
		perRank[rank] = append(perRank[rank], rec)
	}
	return traceOf(recorder.Meta{}, perRank)
}

// FuzzBuildHB requires BuildHB not to panic on a fuzzed trace and to agree
// with the oracle: the same error text, or the same cross-rank clocks.
func FuzzBuildHB(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 0, 1, 1, 0, 2, 0, 0})
	f.Add([]byte{3, 2, 0, 0, 5, 2, 1, 0, 5, 2, 2, 0, 5, 3, 0, 1, 9, 4, 2, 1, 9})
	f.Add([]byte{4, 0, 0, 3, 1, 1, 3, 0, 2, 2, 1, 5, 3, 0, 0, 6, 1, 3, 3, 7})
	// Ranks 0 and 1 each hold an event stamped [2,4]: the builders must
	// break the tie alike to name the same unprocessed predecessor.
	f.Add([]byte("220000000210200170010001002C7021000100100020001000100"))
	// Rank 0's second send starts and ends before its first.
	f.Add([]byte{1, 0, 0, 0, 5, 0, 0, 0, 0xf3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if d := diffHBOracle(fuzzHBTrace(data)); d != "" {
			t.Fatal(d)
		}
	})
}
