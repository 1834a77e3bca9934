package silo

import (
	"fmt"
	"testing"

	"repro/internal/harness"
	"repro/internal/pfs"
	"repro/internal/recorder"
	"repro/internal/recorder/v1test"
)

func runDump(t *testing.T, ranks, ppn, files int) *harness.Result {
	t.Helper()
	res, err := harness.Run(harness.Config{Ranks: ranks, PPN: ppn, Semantics: pfs.Strong},
		recorder.Meta{App: "silo-test", Library: "Silo"},
		func(ctx *harness.Ctx) error {
			return Dump(ctx.MPI, ctx.OS, ctx.Tracer, "/dump000",
				[]string{"pressure", "density"}, Options{Files: files, BlockSize: 256})
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMultiFileLayout(t *testing.T) {
	res := runDump(t, 8, 4, 2) // 8 ranks over 2 files → groups of 4
	for fidx := 0; fidx < 2; fidx++ {
		path := fmt.Sprintf("/dump000.%03d.silo", fidx)
		info, _, err := res.FS.Stat(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		// toc + 4 mesh blocks + 2 vars × 4 blocks = 384 + 4*256 + 8*256
		want := int64(384 + 4*256 + 8*256)
		if info.Size != want {
			t.Fatalf("%s size %d, want %d", path, info.Size, want)
		}
	}
}

func TestBatonSerializesGroup(t *testing.T) {
	res := runDump(t, 4, 4, 1) // one file, 4 ranks, baton through all
	// Writes to the shared file must be time-ordered by rank (baton order)
	// for the mesh blocks.
	type w struct {
		rank int32
		t    uint64
	}
	var meshWrites []w
	for _, r := range v1test.Filter(res.Trace, func(r *recorder.Record) bool {
		return r.Func == recorder.FuncPwrite && r.Arg(1) == 256 && r.Arg(2) >= 384 && r.Arg(2) < 384+4*256
	}) {
		meshWrites = append(meshWrites, w{r.Rank, r.TStart})
	}
	if len(meshWrites) != 4 {
		t.Fatalf("found %d mesh writes, want 4", len(meshWrites))
	}
	for i := 1; i < len(meshWrites); i++ {
		if meshWrites[i].t < meshWrites[i-1].t {
			t.Fatalf("baton order violated: %v", meshWrites)
		}
	}
}

func TestRootRewritesTOCSameSession(t *testing.T) {
	res := runDump(t, 4, 2, 2)
	// Each group root must write offset 0 at least twice, with the first
	// two writes inside one open session (DBCreate TOC + directory update):
	// the WAW-S mechanism.
	perRank := map[int32]int{}
	for _, r := range v1test.Filter(res.Trace, func(r *recorder.Record) bool {
		return r.IsWriteOp() && r.Arg(2) == 0
	}) {
		perRank[r.Rank]++
	}
	if len(perRank) != 2 {
		t.Fatalf("TOC written by %d ranks, want the 2 group roots: %v", len(perRank), perRank)
	}
	for rank, n := range perRank {
		if n < 2 {
			t.Fatalf("rank %d wrote TOC %d times, want >= 2", rank, n)
		}
	}
}

func TestStridedPerRankOffsets(t *testing.T) {
	res := runDump(t, 4, 4, 1)
	// Rank 1's writes in the shared file: mesh at 384+256, var0 at
	// 384+4*256+256, var1 at 384+4*256+4*256+256 — strided, not consecutive.
	var offs []int64
	for _, r := range v1test.Filter(res.Trace, func(r *recorder.Record) bool {
		return r.Rank == 1 && r.IsWriteOp()
	}) {
		offs = append(offs, r.Arg(2))
	}
	want := []int64{384 + 256, 384 + 4*256 + 256, 384 + 4*256 + 4*256 + 256}
	if len(offs) != len(want) {
		t.Fatalf("rank 1 writes %v, want %v", offs, want)
	}
	for i := range want {
		if offs[i] != want[i] {
			t.Fatalf("rank 1 writes %v, want %v", offs, want)
		}
	}
}

func TestSiloLayerRecords(t *testing.T) {
	res := runDump(t, 2, 2, 1)
	seen := map[recorder.Func]bool{}
	for _, r := range v1test.Filter(res.Trace, func(r *recorder.Record) bool { return r.Layer == recorder.LayerSilo }) {
		seen[r.Func] = true
	}
	for _, fn := range []recorder.Func{
		recorder.FuncDBCreate, recorder.FuncDBOpen,
		recorder.FuncDBPutQuadmesh, recorder.FuncDBPutQuadvar, recorder.FuncDBMkDir,
	} {
		if !seen[fn] {
			t.Errorf("missing Silo record %v", fn)
		}
	}
}

func TestSingleRankGroups(t *testing.T) {
	res := runDump(t, 2, 1, 2) // every rank is its own group root
	for fidx := 0; fidx < 2; fidx++ {
		path := fmt.Sprintf("/dump000.%03d.silo", fidx)
		if !res.FS.Exists(path) {
			t.Fatalf("%s missing", path)
		}
	}
}
