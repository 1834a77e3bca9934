package core

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/pfs"
	"repro/internal/recorder"
)

// runTrace executes a body and returns the extracted file accesses.
func runTrace(t *testing.T, ranks int, body func(ctx *harness.Ctx) error) (*recorder.Trace, []*FileAccesses) {
	t.Helper()
	res, err := harness.Run(harness.Config{Ranks: ranks, Semantics: pfs.Strong},
		recorder.Meta{App: "core-test"}, body)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	return res.Trace, extractAll(res.Trace)
}

func findFile(t *testing.T, fas []*FileAccesses, path string) *FileAccesses {
	t.Helper()
	for _, fa := range fas {
		if fa.Path == path {
			return fa
		}
	}
	t.Fatalf("file %s not in extraction (have %d files)", path, len(fas))
	return nil
}

func TestExtractSequentialWrites(t *testing.T) {
	_, fas := runTrace(t, 1, func(ctx *harness.Ctx) error {
		fd, _ := ctx.OS.Open("/f", recorder.OCreat|recorder.OWronly, 0o644)
		ctx.OS.Write(fd, make([]byte, 100)) // [0,100)
		ctx.OS.Write(fd, make([]byte, 50))  // [100,150)
		return ctx.OS.Close(fd)
	})
	fa := findFile(t, fas, "/f")
	if len(fa.Intervals) != 2 {
		t.Fatalf("intervals = %+v", fa.Intervals)
	}
	if fa.Intervals[0].Os != 0 || fa.Intervals[0].Oe != 100 {
		t.Fatalf("first interval [%d,%d)", fa.Intervals[0].Os, fa.Intervals[0].Oe)
	}
	if fa.Intervals[1].Os != 100 || fa.Intervals[1].Oe != 150 {
		t.Fatalf("second interval [%d,%d): offset tracking broken", fa.Intervals[1].Os, fa.Intervals[1].Oe)
	}
	if !fa.Intervals[0].Write {
		t.Fatal("write not marked")
	}
}

func TestExtractSeekAndPositional(t *testing.T) {
	_, fas := runTrace(t, 1, func(ctx *harness.Ctx) error {
		fd, _ := ctx.OS.Open("/f", recorder.OCreat|recorder.ORdwr, 0o644)
		ctx.OS.Write(fd, make([]byte, 100))
		ctx.OS.Lseek(fd, 10, recorder.SeekSet)
		ctx.OS.Read(fd, 20)                     // [10,30)
		ctx.OS.Lseek(fd, 5, recorder.SeekCur)   // now at 35
		ctx.OS.Read(fd, 10)                     // [35,45)
		ctx.OS.Lseek(fd, -40, recorder.SeekEnd) // size 100 → 60
		ctx.OS.Read(fd, 10)                     // [60,70)
		ctx.OS.Pwrite(fd, make([]byte, 7), 90)  // [90,97), no offset move
		ctx.OS.Read(fd, 5)                      // [70,75)
		return ctx.OS.Close(fd)
	})
	fa := findFile(t, fas, "/f")
	want := [][2]int64{{0, 100}, {10, 30}, {35, 45}, {60, 70}, {90, 97}, {70, 75}}
	if len(fa.Intervals) != len(want) {
		t.Fatalf("got %d intervals", len(fa.Intervals))
	}
	for i, w := range want {
		got := fa.Intervals[i]
		if got.Os != w[0] || got.Oe != w[1] {
			t.Fatalf("interval %d = [%d,%d), want [%d,%d)", i, got.Os, got.Oe, w[0], w[1])
		}
	}
}

func TestExtractAppendMode(t *testing.T) {
	_, fas := runTrace(t, 1, func(ctx *harness.Ctx) error {
		fd, _ := ctx.OS.Open("/log", recorder.OCreat|recorder.OWronly, 0o644)
		ctx.OS.Write(fd, make([]byte, 64))
		ctx.OS.Close(fd)
		fd2, _ := ctx.OS.Open("/log", recorder.OWronly|recorder.OAppend, 0)
		ctx.OS.Write(fd2, make([]byte, 16)) // must land at [64,80)
		return ctx.OS.Close(fd2)
	})
	fa := findFile(t, fas, "/log")
	last := fa.Intervals[len(fa.Intervals)-1]
	if last.Os != 64 || last.Oe != 80 {
		t.Fatalf("append interval [%d,%d), want [64,80)", last.Os, last.Oe)
	}
}

func TestExtractTruncReset(t *testing.T) {
	_, fas := runTrace(t, 1, func(ctx *harness.Ctx) error {
		fd, _ := ctx.OS.Open("/f", recorder.OCreat|recorder.OWronly, 0o644)
		ctx.OS.Write(fd, make([]byte, 100))
		ctx.OS.Close(fd)
		fd2, _ := ctx.OS.Open("/f", recorder.OWronly|recorder.OTrunc|recorder.OAppend, 0)
		ctx.OS.Write(fd2, make([]byte, 10)) // append to truncated file → [0,10)
		return ctx.OS.Close(fd2)
	})
	fa := findFile(t, fas, "/f")
	last := fa.Intervals[len(fa.Intervals)-1]
	if last.Os != 0 || last.Oe != 10 {
		t.Fatalf("post-trunc append at [%d,%d), want [0,10)", last.Os, last.Oe)
	}
}

func TestExtractStdio(t *testing.T) {
	_, fas := runTrace(t, 1, func(ctx *harness.Ctx) error {
		fd, _ := ctx.OS.Fopen("/s", "w+")
		ctx.OS.Fwrite(fd, make([]byte, 40), 8, 5)
		ctx.OS.Fseek(fd, 0, recorder.SeekSet)
		ctx.OS.Fread(fd, 8, 2)
		return ctx.OS.Fclose(fd)
	})
	fa := findFile(t, fas, "/s")
	if len(fa.Intervals) != 2 {
		t.Fatalf("intervals: %+v", fa.Intervals)
	}
	if fa.Intervals[0].Os != 0 || fa.Intervals[0].Oe != 40 || !fa.Intervals[0].Write {
		t.Fatalf("fwrite interval wrong: %+v", fa.Intervals[0])
	}
	if fa.Intervals[1].Os != 0 || fa.Intervals[1].Oe != 16 || fa.Intervals[1].Write {
		t.Fatalf("fread interval wrong: %+v", fa.Intervals[1])
	}
}

func TestExtractToTcAnnotations(t *testing.T) {
	_, fas := runTrace(t, 1, func(ctx *harness.Ctx) error {
		fd, _ := ctx.OS.Open("/f", recorder.OCreat|recorder.OWronly, 0o644)
		ctx.OS.Write(fd, make([]byte, 10))
		ctx.OS.Fsync(fd)
		ctx.OS.Write(fd, make([]byte, 10))
		return ctx.OS.Close(fd)
	})
	fa := findFile(t, fas, "/f")
	w1, w2 := annotationsOf(fa, &fa.Intervals[0]), annotationsOf(fa, &fa.Intervals[1])
	if w1.To == NoTime || w1.To > w1.T {
		t.Fatalf("w1.To = %d", w1.To)
	}
	if w1.TcCommit == NoTime || w1.TcCommit <= w1.T || w1.TcCommit >= w2.T {
		t.Fatalf("w1.TcCommit = %d must be the fsync between the writes", w1.TcCommit)
	}
	if w1.TcClose <= w2.T || w1.TcClose == NoTime {
		t.Fatalf("w1.TcClose = %d must be the final close", w1.TcClose)
	}
	if w2.TcCommit == NoTime || w2.TcCommit != w2.TcClose {
		t.Fatalf("w2 commit should be the close: %d vs %d", w2.TcCommit, w2.TcClose)
	}
}

func TestExtractMultiRank(t *testing.T) {
	_, fas := runTrace(t, 4, func(ctx *harness.Ctx) error {
		fd, _ := ctx.OS.Open("/shared", recorder.OCreat|recorder.OWronly, 0o644)
		ctx.OS.Pwrite(fd, make([]byte, 64), int64(ctx.Rank)*64)
		return ctx.OS.Close(fd)
	})
	fa := findFile(t, fas, "/shared")
	if len(fa.Intervals) != 4 {
		t.Fatalf("want 4 intervals, got %d", len(fa.Intervals))
	}
	ranks := map[int32]bool{}
	for _, ivl := range fa.Intervals {
		ranks[ivl.Rank] = true
	}
	if len(ranks) != 4 {
		t.Fatalf("ranks = %v", ranks)
	}
	if len(fa.Ranks) != 4 {
		t.Fatalf("per-rank tables = %+v, want one entry per rank", fa.Ranks)
	}
	for r, rt := range fa.Ranks {
		if rt.Rank != int32(r) || len(rt.Opens) != 1 || len(rt.Closes) != 1 || len(rt.Commits) != 1 {
			t.Fatalf("Ranks[%d] = %+v, want rank %d with one open, close and commit", r, rt, r)
		}
		if fa.TimesOf(int32(r)) != &fa.Ranks[r] {
			t.Fatalf("TimesOf(%d) does not return Ranks[%d]", r, r)
		}
	}
	if fa.TimesOf(4) != nil || fa.TimesOf(-1) != nil {
		t.Fatal("TimesOf of an absent rank is not nil")
	}
}

func TestExtractOriginAttribution(t *testing.T) {
	// A write issued through a library layer must be attributed to it.
	res, err := harness.Run(harness.Config{Ranks: 1, Semantics: pfs.Strong},
		recorder.Meta{App: "attr"}, func(ctx *harness.Ctx) error {
			// Emit a synthetic HDF5-layer record enclosing a posix write.
			ts := ctx.OS.Clock().Stamp()
			fd, _ := ctx.OS.Open("/h", recorder.OCreat|recorder.OWronly, 0o644)
			ctx.OS.Pwrite(fd, make([]byte, 32), 0)
			ctx.Tracer.Emit(recorder.Record{
				Layer: recorder.LayerHDF5, Func: recorder.FuncH5Dwrite,
				TStart: ts, TEnd: ctx.OS.Clock().Stamp(), Path: "/h",
			})
			ctx.OS.Pwrite(fd, make([]byte, 32), 100) // app-level write
			return ctx.OS.Close(fd)
		})
	if err != nil {
		t.Fatal(err)
	}
	fas := extractAll(res.Trace)
	fa := findFile(t, fas, "/h")
	if fa.Intervals[0].Origin != recorder.LayerHDF5 {
		t.Fatalf("first write origin = %v, want HDF5", fa.Intervals[0].Origin)
	}
	if fa.Intervals[1].Origin != recorder.LayerApp {
		t.Fatalf("second write origin = %v, want App", fa.Intervals[1].Origin)
	}
	if fa.Intervals[0].Phase < 0 {
		t.Fatal("library-issued write must carry a phase id")
	}
	if fa.Intervals[1].Phase != -1 {
		t.Fatal("app-level write must have phase -1")
	}
}

func TestExtractIgnoresFailedAndZeroOps(t *testing.T) {
	_, fas := runTrace(t, 1, func(ctx *harness.Ctx) error {
		ctx.OS.Open("/missing", recorder.ORdonly, 0) // fails
		fd, _ := ctx.OS.Open("/f", recorder.OCreat|recorder.ORdwr, 0o644)
		ctx.OS.Read(fd, 100) // empty file → 0 bytes → no interval
		ctx.OS.Write(fd, make([]byte, 10))
		return ctx.OS.Close(fd)
	})
	for _, fa := range fas {
		if fa.Path == "/missing" && len(fa.Intervals) > 0 {
			t.Fatal("failed open produced intervals")
		}
		if fa.Path == "/f" && len(fa.Intervals) != 1 {
			t.Fatalf("/f intervals = %+v", fa.Intervals)
		}
	}
}
