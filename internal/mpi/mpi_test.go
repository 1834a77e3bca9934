package mpi

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/payload"
	"repro/internal/recorder"
	"repro/internal/sim"
)

// runWorld spawns n ranks, runs body on each, and returns the per-rank procs
// after completion.
func runWorld(t *testing.T, n int, body func(p *Proc)) []*Proc {
	t.Helper()
	topo := sim.NewTopology(n, 4)
	w := NewWorld(topo)
	procs := make([]*Proc, n)
	for r := 0; r < n; r++ {
		procs[r] = NewProc(w, r, sim.NewClock(0, 0), recorder.NewRankTracer(r))
	}
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			body(p)
		}(procs[r])
	}
	wg.Wait()
	return procs
}

// records returns the procs' records in emission order.
func records(procs []*Proc) [][]recorder.Record {
	tracers := make([]*recorder.RankTracer, len(procs))
	for r, p := range procs {
		tracers[r] = p.tracer
	}
	tr, err := recorder.TraceOf(recorder.Meta{}, tracers)
	if err != nil {
		panic(err)
	}
	out := make([][]recorder.Record, len(procs))
	for r := range out {
		out[r] = tr.Records(r)
	}
	return out
}

func TestSendRecvDeliversData(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 7, []byte("payload"))
		} else {
			got := p.Recv(0, 7)
			if !bytes.Equal(got, []byte("payload")) {
				t.Errorf("recv got %q", got)
			}
		}
	})
}

func TestRecvAdvancesClockPastSend(t *testing.T) {
	procs := runWorld(t, 2, func(p *Proc) {
		if p.Rank() == 0 {
			p.Compute(10) // sender is "ahead" in time
			p.Send(1, 0, []byte("x"))
		} else {
			p.Recv(0, 0)
		}
	})
	sendTime := procs[0].Clock().Now()
	recvTime := procs[1].Clock().Now()
	if recvTime <= 0 || recvTime < sendTime-sim.MsgLatency {
		t.Fatalf("receiver clock %d did not advance past sender activity %d", recvTime, sendTime)
	}
}

func TestSendRecvFIFOPerTag(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		if p.Rank() == 0 {
			for i := 0; i < 10; i++ {
				p.Send(1, 3, []byte{byte(i)})
			}
		} else {
			for i := 0; i < 10; i++ {
				got := p.Recv(0, 3)
				if got[0] != byte(i) {
					t.Errorf("message %d arrived out of order: %d", i, got[0])
				}
			}
		}
	})
}

func TestTagsMatchIndependently(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 1, []byte("one"))
			p.Send(1, 2, []byte("two"))
		} else {
			// Receive in the opposite order of sends — tags must isolate.
			if got := p.Recv(0, 2); !bytes.Equal(got, []byte("two")) {
				t.Errorf("tag 2 got %q", got)
			}
			if got := p.Recv(0, 1); !bytes.Equal(got, []byte("one")) {
				t.Errorf("tag 1 got %q", got)
			}
		}
	})
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	procs := runWorld(t, 4, func(p *Proc) {
		p.Compute(p.Rank() + 1) // ranks arrive at different times
		p.Barrier()
	})
	exit := procs[0].Clock().Now()
	for _, p := range procs[1:] {
		if p.Clock().Now() != exit {
			t.Fatalf("barrier exit clocks differ: %d vs %d", p.Clock().Now(), exit)
		}
	}
	// Exit must be at least the slowest arrival.
	slowest := uint64(4) * sim.LocalCompute
	if exit < slowest {
		t.Fatalf("barrier exit %d earlier than slowest arrival %d", exit, slowest)
	}
}

func TestBcast(t *testing.T) {
	runWorld(t, 4, func(p *Proc) {
		var data []byte
		if p.Rank() == 2 {
			data = []byte("from-root")
		}
		got := p.Bcast(2, data)
		if !bytes.Equal(got, []byte("from-root")) {
			t.Errorf("rank %d bcast got %q", p.Rank(), got)
		}
	})
}

func TestGather(t *testing.T) {
	runWorld(t, 4, func(p *Proc) {
		out := p.Gather(0, []byte{byte(p.Rank() * 10)})
		if p.Rank() == 0 {
			for r := 0; r < 4; r++ {
				if out[r][0] != byte(r*10) {
					t.Errorf("gather slot %d = %d", r, out[r][0])
				}
			}
		} else if out != nil {
			t.Errorf("non-root rank %d got gather data", p.Rank())
		}
	})
}

func TestAllgather(t *testing.T) {
	procs := runWorld(t, 3, func(p *Proc) {
		h := []byte{byte('a' + p.Rank())}
		out, data := p.Allgather(h, payload.Fill(uint64(p.Rank()), int64(p.Rank())))
		want := []byte{'a', 'b', 'c'}
		for r := 0; r < 3; r++ {
			if out[r][0] != want[r] {
				t.Errorf("rank %d allgather slot %d = %c", p.Rank(), r, out[r][0])
			}
			if data[r] != payload.Fill(uint64(r), int64(r)) {
				t.Errorf("rank %d allgather payload %d = %v, want rank %d's reference", p.Rank(), r, data[r], r)
			}
		}
	})
	// The recorded size is the header plus the payload's length.
	for r, rs := range records(procs) {
		if got := rs[0].Arg(1); got != int64(1+r) {
			t.Errorf("rank %d MPI_Allgather bytes = %d, want %d", r, got, 1+r)
		}
	}
}

func TestScatter(t *testing.T) {
	runWorld(t, 3, func(p *Proc) {
		var parts [][]byte
		if p.Rank() == 1 {
			parts = [][]byte{[]byte("p0"), []byte("p1"), []byte("p2")}
		}
		got := p.Scatter(1, parts)
		want := []byte{'p', byte('0' + p.Rank())}
		if !bytes.Equal(got, want) {
			t.Errorf("rank %d scatter got %q, want %q", p.Rank(), got, want)
		}
	})
}

func TestReduceAndAllreduce(t *testing.T) {
	runWorld(t, 4, func(p *Proc) {
		sum := p.Reduce(0, int64(p.Rank()+1), OpSum)
		if p.Rank() == 0 && sum != 10 {
			t.Errorf("reduce sum = %d, want 10", sum)
		}
		if p.Rank() != 0 && sum != 0 {
			t.Errorf("non-root reduce = %d, want 0", sum)
		}
		max := p.Allreduce(int64(p.Rank()*5), OpMax)
		if max != 15 {
			t.Errorf("allreduce max = %d, want 15", max)
		}
		min := p.Allreduce(int64(p.Rank()), OpMin)
		if min != 0 {
			t.Errorf("allreduce min = %d, want 0", min)
		}
	})
}

func TestAlltoall(t *testing.T) {
	runWorld(t, 3, func(p *Proc) {
		parts := make([][]byte, 3)
		for dst := 0; dst < 3; dst++ {
			parts[dst] = []byte{byte(p.Rank()), byte(dst)}
		}
		got := p.Alltoall(parts)
		for src := 0; src < 3; src++ {
			want := []byte{byte(src), byte(p.Rank())}
			if !bytes.Equal(got[src], want) {
				t.Errorf("rank %d alltoall from %d = %v, want %v", p.Rank(), src, got[src], want)
			}
		}
	})
}

func TestCollectiveSequenceNumbersMatch(t *testing.T) {
	procs := runWorld(t, 3, func(p *Proc) {
		p.Barrier()
		p.Allreduce(1, OpSum)
		p.Barrier()
	})
	// Every rank's k-th collective record must carry the same sequence number.
	var seqs [3][]int64
	for r, rs := range records(procs) {
		for _, rec := range rs {
			if rec.Layer == recorder.LayerMPI {
				seqs[r] = append(seqs[r], rec.Arg(2))
			}
		}
	}
	if len(seqs[0]) != 3 {
		t.Fatalf("expected 3 collective records, got %d", len(seqs[0]))
	}
	for r := 1; r < 3; r++ {
		for k := range seqs[0] {
			if seqs[r][k] != seqs[0][k] {
				t.Fatalf("collective %d seq mismatch: rank %d has %d, rank 0 has %d", k, r, seqs[r][k], seqs[0][k])
			}
		}
	}
}

func TestTraceRecordsEmitted(t *testing.T) {
	procs := runWorld(t, 2, func(p *Proc) {
		p.Barrier()
		if p.Rank() == 0 {
			p.Send(1, 5, []byte("abc"))
		} else {
			p.Recv(0, 5)
		}
	})
	perRank := records(procs)
	recs0 := perRank[0]
	if len(recs0) != 2 {
		t.Fatalf("rank 0 has %d records, want 2", len(recs0))
	}
	if recs0[0].Func != recorder.FuncMPIBarrier {
		t.Fatalf("first record %v, want MPI_Barrier", recs0[0].Func)
	}
	send := recs0[1]
	if send.Func != recorder.FuncMPISend || send.Arg(0) != 1 || send.Arg(1) != 5 || send.Arg(2) != 3 {
		t.Fatalf("send record wrong: %v", send)
	}
	recv := perRank[1][1]
	if recv.Func != recorder.FuncMPIRecv || recv.Arg(0) != 0 || recv.Arg(1) != 5 {
		t.Fatalf("recv record wrong: %v", recv)
	}
	if recv.TEnd < send.TStart {
		t.Fatalf("recv completed (%d) before send started (%d)", recv.TEnd, send.TStart)
	}
}

func TestDeterministicClocks(t *testing.T) {
	run := func() []uint64 {
		procs := runWorld(t, 4, func(p *Proc) {
			p.Barrier()
			if p.Rank()%2 == 0 {
				p.Send(p.Rank()+1, 0, make([]byte, 100))
			} else {
				p.Recv(p.Rank()-1, 0)
			}
			p.Allreduce(int64(p.Rank()), OpSum)
		})
		out := make([]uint64, 4)
		for i, p := range procs {
			out[i] = p.Clock().Now()
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d clock differs between runs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestDetachReleasesCollectives(t *testing.T) {
	// Rank 3 "crashes" after the first barrier; the survivors' remaining
	// collectives must complete without it instead of wedging.
	procs := runWorld(t, 4, func(p *Proc) {
		p.Barrier()
		if p.Rank() == 3 {
			p.Detach()
			return
		}
		p.Barrier()
		if got := p.Allreduce(1, OpSum); got != 3 {
			t.Errorf("rank %d: post-detach allreduce = %d, want 3", p.Rank(), got)
		}
		p.Barrier()
	})
	_ = procs
}

func TestDetachMidRoundReleasesWaiters(t *testing.T) {
	// Ranks 0 and 1 are already blocked in a barrier when rank 2 detaches:
	// the in-progress round must be released, not just future ones.
	start := make(chan struct{})
	runWorld(t, 3, func(p *Proc) {
		if p.Rank() == 2 {
			<-start
			p.Detach()
			return
		}
		if p.Rank() == 0 {
			close(start) // imperfect ordering is fine; depart covers both cases
		}
		p.Barrier()
	})
}

func TestRecvFromDepartedPeerReturnsNil(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 1, []byte("before-death"))
			p.Detach()
			return
		}
		if got := p.Recv(0, 1); !bytes.Equal(got, []byte("before-death")) {
			t.Errorf("queued message lost: %q", got)
		}
		if got := p.Recv(0, 2); got != nil {
			t.Errorf("recv from dead peer = %q, want nil", got)
		}
	})
}

func TestDetachIdempotent(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		p.Barrier()
		if p.Rank() == 1 {
			p.Detach()
			p.Detach() // double-detach must not corrupt the departed count
			return
		}
		p.Barrier()
		p.Barrier()
	})
}
