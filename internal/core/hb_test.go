package core

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/pfs"
	"repro/internal/recorder"
)

func buildHB(t *testing.T, ranks int, body func(ctx *harness.Ctx) error) (*recorder.Trace, *HB) {
	t.Helper()
	res, err := harness.Run(harness.Config{Ranks: ranks, Semantics: pfs.Strong},
		recorder.Meta{App: "hb-test"}, body)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	hb, err := BuildHB(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace, hb
}

// ioWindow returns the [TStart, TEnd] of the k-th posix data op on a rank.
func ioWindow(t *testing.T, tr *recorder.Trace, rank, k int) (uint64, uint64) {
	t.Helper()
	n := 0
	for _, r := range tr.PerRank[rank] {
		if r.IsDataOp() {
			if n == k {
				return r.TStart, r.TEnd
			}
			n++
		}
	}
	t.Fatalf("rank %d has no data op %d", rank, k)
	return 0, 0
}

func TestHBSendRecvOrders(t *testing.T) {
	tr, hb := buildHB(t, 2, func(ctx *harness.Ctx) error {
		if ctx.Rank == 0 {
			fd, _ := ctx.OS.Open("/f", recorder.OCreat|recorder.OWronly, 0o644)
			ctx.OS.Pwrite(fd, make([]byte, 64), 0)
			ctx.OS.Close(fd)
			ctx.MPI.Send(1, 9, []byte("go"))
		} else {
			ctx.MPI.Recv(0, 9)
			fd, _ := ctx.OS.Open("/f", recorder.ORdonly, 0)
			ctx.OS.Pread(fd, 64, 0)
			ctx.OS.Close(fd)
		}
		return nil
	})
	_, wEnd := ioWindow(t, tr, 0, 0)
	rStart, _ := ioWindow(t, tr, 1, 0)
	if !hb.OrderedIO(0, wEnd, 1, rStart) {
		t.Fatal("write before send must happen-before read after recv")
	}
	// Reverse direction must NOT be ordered.
	if hb.OrderedIO(1, rStart, 0, wEnd) {
		t.Fatal("reverse ordering claimed")
	}
}

func TestHBBarrierOrders(t *testing.T) {
	tr, hb := buildHB(t, 4, func(ctx *harness.Ctx) error {
		fd, _ := ctx.OS.Open("/f", recorder.OCreat|recorder.ORdwr, 0o644)
		if ctx.Rank == 2 {
			ctx.OS.Pwrite(fd, make([]byte, 32), 0)
		}
		ctx.MPI.Barrier()
		if ctx.Rank == 3 {
			ctx.OS.Pread(fd, 32, 0)
		}
		return ctx.OS.Close(fd)
	})
	_, wEnd := ioWindow(t, tr, 2, 0)
	rStart, _ := ioWindow(t, tr, 3, 0)
	if !hb.OrderedIO(2, wEnd, 3, rStart) {
		t.Fatal("write before barrier must happen-before read after barrier")
	}
}

func TestHBConcurrentOpsNotOrdered(t *testing.T) {
	tr, hb := buildHB(t, 2, func(ctx *harness.Ctx) error {
		fd, _ := ctx.OS.Open("/f", recorder.OCreat|recorder.OWronly, 0o644)
		ctx.OS.Pwrite(fd, make([]byte, 32), int64(ctx.Rank)*32)
		err := ctx.OS.Close(fd)
		ctx.MPI.Barrier()
		return err
	})
	// The two writes are concurrent (no synchronization between them).
	_, w0End := ioWindow(t, tr, 0, 0)
	w1Start, _ := ioWindow(t, tr, 1, 0)
	if hb.OrderedIO(0, w0End, 1, w1Start) {
		t.Fatal("concurrent writes claimed ordered")
	}
}

func TestHBSameRankProgramOrder(t *testing.T) {
	_, hb := buildHB(t, 1, func(ctx *harness.Ctx) error {
		ctx.MPI.Barrier()
		return nil
	})
	if !hb.OrderedIO(0, 100, 0, 200) {
		t.Fatal("same-rank program order broken")
	}
	if hb.OrderedIO(0, 200, 0, 100) {
		t.Fatal("same-rank reverse order claimed")
	}
}

func TestHBTransitiveThroughChain(t *testing.T) {
	// 0 → 1 → 2 message chain orders rank 0's write before rank 2's read.
	tr, hb := buildHB(t, 3, func(ctx *harness.Ctx) error {
		switch ctx.Rank {
		case 0:
			fd, _ := ctx.OS.Open("/f", recorder.OCreat|recorder.OWronly, 0o644)
			ctx.OS.Pwrite(fd, make([]byte, 8), 0)
			ctx.OS.Close(fd)
			ctx.MPI.Send(1, 1, []byte("a"))
		case 1:
			ctx.MPI.Recv(0, 1)
			ctx.MPI.Send(2, 2, []byte("b"))
		case 2:
			ctx.MPI.Recv(1, 2)
			fd, _ := ctx.OS.Open("/f", recorder.ORdonly, 0)
			ctx.OS.Pread(fd, 8, 0)
			ctx.OS.Close(fd)
		}
		return nil
	})
	_, wEnd := ioWindow(t, tr, 0, 0)
	rStart, _ := ioWindow(t, tr, 2, 0)
	if !hb.OrderedIO(0, wEnd, 2, rStart) {
		t.Fatal("transitive ordering through message chain not detected")
	}
}

func TestValidateConflictsOnSynchronizedApp(t *testing.T) {
	// A deliberately conflicting-but-synchronized workload: rank 0 writes,
	// everyone barriers, rank 1 overwrites. The conflict detector flags the
	// WAW-D pair under session semantics; HB validation must confirm the
	// pair is ordered by the barrier (the paper's §5.2 FLASH validation).
	res, err := harness.Run(harness.Config{Ranks: 2, Semantics: pfs.Strong},
		recorder.Meta{App: "sync-test"}, func(ctx *harness.Ctx) error {
			fd, _ := ctx.OS.Open("/f", recorder.OCreat|recorder.OWronly, 0o644)
			if ctx.Rank == 0 {
				ctx.OS.Pwrite(fd, make([]byte, 64), 0)
			}
			ctx.MPI.Barrier()
			if ctx.Rank == 1 {
				ctx.OS.Pwrite(fd, make([]byte, 64), 0)
			}
			return ctx.OS.Close(fd)
		})
	if err != nil || res.Err() != nil {
		t.Fatal(err, res.Err())
	}
	byFile, sig := ConflictsOverFiles(extractAll(res.Trace), pfs.Session)
	if !sig.WAWDiff {
		t.Fatalf("expected a WAW-D conflict, got %+v", sig)
	}
	hb, err := BuildHB(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	unordered := ValidateConflicts(hb, byFile["/f"])
	if len(unordered) != 0 {
		t.Fatalf("synchronized conflicts reported unordered: %v", unordered)
	}
}

func TestAnalyzeVerdicts(t *testing.T) {
	// Unsynchronized-commit workload: write then cross-rank overwrite with
	// fsync between → session conflict only → weakest sufficient = commit.
	res, err := harness.Run(harness.Config{Ranks: 2, Semantics: pfs.Strong},
		recorder.Meta{App: "verdict-test"}, func(ctx *harness.Ctx) error {
			fd, _ := ctx.OS.Open("/f", recorder.OCreat|recorder.OWronly, 0o644)
			if ctx.Rank == 0 {
				ctx.OS.Pwrite(fd, make([]byte, 64), 0)
				ctx.OS.Fsync(fd)
			}
			ctx.MPI.Barrier()
			if ctx.Rank == 1 {
				ctx.OS.Pwrite(fd, make([]byte, 64), 0)
			}
			return ctx.OS.Close(fd)
		})
	if err != nil || res.Err() != nil {
		t.Fatal(err, res.Err())
	}
	v := analyzeVerdict(res.Trace)
	if !v.Session.WAWDiff {
		t.Fatalf("session signature = %+v", v.Session)
	}
	if v.Commit.WAWDiff {
		t.Fatalf("commit signature should be clean: %+v", v.Commit)
	}
	if v.Weakest != pfs.Commit {
		t.Fatalf("weakest = %v, want commit", v.Weakest)
	}
}
