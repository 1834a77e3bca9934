package core

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/payload"
	"repro/internal/pfs"
	"repro/internal/recorder"
)

func metaRun(t *testing.T, ranks int, body func(ctx *harness.Ctx) error) []MetaConflict {
	t.Helper()
	res, err := harness.Run(harness.Config{Ranks: ranks, Semantics: pfs.Strong},
		recorder.Meta{App: "meta-test"}, body)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	return metaConflicts(res.Trace)
}

func TestCreateUseAcrossRanks(t *testing.T) {
	cs := metaRun(t, 2, func(ctx *harness.Ctx) error {
		if ctx.Rank == 0 {
			fd, err := ctx.OS.Open("/shared.dat", recorder.OCreat|recorder.OWronly, 0o644)
			if err != nil {
				return err
			}
			ctx.OS.Write(fd, payload.Bytes([]byte("x")))
			ctx.OS.Close(fd)
		}
		ctx.MPI.Barrier()
		if ctx.Rank == 1 {
			fd, err := ctx.OS.Open("/shared.dat", recorder.ORdonly, 0)
			if err != nil {
				return err
			}
			ctx.OS.Close(fd)
		}
		return nil
	})
	if len(cs) != 1 || cs[0].Kind != CreateUse || cs[0].Path != "/shared.dat" {
		t.Fatalf("conflicts = %v", cs)
	}
	if cs[0].Mutation.Rank != 0 || cs[0].Use.Rank != 1 {
		t.Fatalf("pair ranks wrong: %v", cs[0])
	}
	sig := MetaSignatureOf(cs)
	if !sig.CreateUse || sig.RemoveUse || sig.ResizeUse || !sig.Any() {
		t.Fatalf("signature = %+v", sig)
	}
}

func TestDirectoryCreateUse(t *testing.T) {
	// mkdir by rank 0, creating open inside the directory by rank 1: the
	// child creation depends on the directory's visibility.
	cs := metaRun(t, 2, func(ctx *harness.Ctx) error {
		if ctx.Rank == 0 {
			if err := ctx.OS.Mkdir("/out.bp", 0o755); err != nil {
				return err
			}
		}
		ctx.MPI.Barrier()
		if ctx.Rank == 1 {
			fd, err := ctx.OS.Open("/out.bp/data.1", recorder.OCreat|recorder.OWronly, 0o644)
			if err != nil {
				return err
			}
			ctx.OS.Close(fd)
		}
		return nil
	})
	found := false
	for _, c := range cs {
		if c.Kind == CreateUse && c.Path == "/out.bp" && c.Use.Rank == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("directory dependency not detected: %v", cs)
	}
}

func TestCreateProbeSuppressed(t *testing.T) {
	// HDF5-style: every rank stats then O_CREAT-opens the same shared file.
	// The stat is an existence probe, not a dependency.
	cs := metaRun(t, 4, func(ctx *harness.Ctx) error {
		ctx.OS.Lstat("/f.h5")
		fd, err := ctx.OS.Open("/f.h5", recorder.OCreat|recorder.ORdwr, 0o644)
		if err != nil {
			return err
		}
		return ctx.OS.Close(fd)
	})
	if len(cs) != 0 {
		t.Fatalf("create probes flagged as dependencies: %v", cs)
	}
}

// TestCreateProbeNeedsNextTouch: a stat stays an existence probe only
// until the rank's next touch of the path. Rank 1's lstat is consumed by
// its plain open, so the later creating open does not suppress it, and
// both the lstat and the open depend on rank 0's creation.
func TestCreateProbeNeedsNextTouch(t *testing.T) {
	cs := metaRun(t, 2, func(ctx *harness.Ctx) error {
		if ctx.Rank == 0 {
			fd, err := ctx.OS.Open("/x", recorder.OCreat|recorder.OWronly, 0o644)
			if err != nil {
				return err
			}
			ctx.OS.Close(fd)
		}
		ctx.MPI.Barrier()
		if ctx.Rank == 1 {
			ctx.OS.Lstat("/x")
			fd, err := ctx.OS.Open("/x", recorder.ORdonly, 0)
			if err != nil {
				return err
			}
			ctx.OS.Close(fd)
			fd, err = ctx.OS.Open("/x", recorder.OCreat|recorder.OWronly, 0o644)
			if err != nil {
				return err
			}
			ctx.OS.Close(fd)
		}
		return nil
	})
	if len(cs) != 2 {
		t.Fatalf("got %d conflicts, want the lstat's and the open's create-use pairs: %v", len(cs), cs)
	}
	for i, f := range []recorder.Func{recorder.FuncLstat, recorder.FuncOpen} {
		if c := cs[i]; c.Kind != CreateUse || c.Use.Func != f || c.Use.Rank != 1 || c.Mutation.Rank != 0 {
			t.Errorf("conflict %d = %v, want a create-use of /x by rank 1's %s", i, c, f)
		}
	}
}

func TestRemoveUseAcrossRanks(t *testing.T) {
	cs := metaRun(t, 2, func(ctx *harness.Ctx) error {
		fd, err := ctx.OS.Open("/victim", recorder.OCreat|recorder.OWronly, 0o644)
		if err == nil {
			ctx.OS.Close(fd)
		}
		ctx.MPI.Barrier()
		if ctx.Rank == 0 {
			ctx.OS.Unlink("/victim")
		}
		ctx.MPI.Barrier()
		if ctx.Rank == 1 {
			ctx.OS.Access("/victim") // expects the removal to be visible
		}
		return nil
	})
	sig := MetaSignatureOf(cs)
	if !sig.RemoveUse {
		t.Fatalf("remove-use not detected: %v", cs)
	}
}

func TestSameRankDependenciesIgnored(t *testing.T) {
	cs := metaRun(t, 2, func(ctx *harness.Ctx) error {
		if ctx.Rank == 0 {
			fd, _ := ctx.OS.Open("/own", recorder.OCreat|recorder.OWronly, 0o644)
			ctx.OS.Close(fd)
			ctx.OS.Stat("/own")
			fd2, _ := ctx.OS.Open("/own", recorder.ORdonly, 0)
			ctx.OS.Close(fd2)
		}
		return nil
	})
	if len(cs) != 0 {
		t.Fatalf("same-rank dependencies flagged: %v", cs)
	}
}

func TestMetaConflictValidation(t *testing.T) {
	res, err := harness.Run(harness.Config{Ranks: 2, Semantics: pfs.Strong},
		recorder.Meta{App: "meta-hb"}, func(ctx *harness.Ctx) error {
			if ctx.Rank == 0 {
				fd, _ := ctx.OS.Open("/sync.dat", recorder.OCreat|recorder.OWronly, 0o644)
				ctx.OS.Close(fd)
			}
			ctx.MPI.Barrier()
			if ctx.Rank == 1 {
				fd, err := ctx.OS.Open("/sync.dat", recorder.ORdonly, 0)
				if err != nil {
					return err
				}
				ctx.OS.Close(fd)
			}
			return nil
		})
	if err != nil || res.Err() != nil {
		t.Fatal(err, res.Err())
	}
	cs := metaConflicts(res.Trace)
	if len(cs) == 0 {
		t.Fatal("expected a create-use pair")
	}
	hb, err := BuildHB(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if un := ValidateMetaConflicts(hb, cs); len(un) != 0 {
		t.Fatalf("barrier-ordered pair reported unordered: %v", un)
	}
}

func TestMetaKindStrings(t *testing.T) {
	if CreateUse.String() != "create-use" || RemoveUse.String() != "remove-use" || ResizeUse.String() != "resize-use" {
		t.Fatal("kind names broken")
	}
	c := MetaConflict{Kind: CreateUse, Path: "/p",
		Mutation: MetaOpRef{Rank: 0, Func: recorder.FuncMkdir},
		Use:      MetaOpRef{Rank: 1, Func: recorder.FuncOpen}}
	if c.String() == "" {
		t.Fatal("String empty")
	}
}
