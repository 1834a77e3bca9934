package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/harness"
)

// withExecute swaps the execute seam for the duration of a test.
func withExecute(t *testing.T, fn func(*apps.Config, apps.Options) (*harness.Result, error)) {
	t.Helper()
	old := execute
	execute = fn
	t.Cleanup(func() { execute = old })
}

// TestSweepRetainsNoFileSystem: the results an executed sweep retains hold
// no simulated file system (replayed results never had one).
func TestSweepRetainsNoFileSystem(t *testing.T) {
	cfgs := []*apps.Config{okConfig("A"), okConfig("B")}
	r, err := runConfigsCtx(context.Background(), cfgs, TestScale(), SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.ByName) != len(cfgs) {
		t.Fatalf("%d results, want %d", len(r.ByName), len(cfgs))
	}
	for name, res := range r.ByName {
		if res.FS != nil {
			t.Errorf("%s: retained result holds its file system", name)
		}
	}
}

// TestSweepIsolatesPanics pins the tentpole contract: a configuration whose
// execution panics becomes one per-configuration error while every other
// configuration still completes with a real trace.
func TestSweepIsolatesPanics(t *testing.T) {
	withExecute(t, func(cfg *apps.Config, opts apps.Options) (*harness.Result, error) {
		if cfg.App == "PanicApp" {
			panic("synthetic sweep panic")
		}
		return apps.Execute(cfg, opts)
	})
	cfgs := []*apps.Config{okConfig("OkOne"), okConfig("PanicApp"), okConfig("OkTwo")}
	for _, workers := range []int{1, 3} {
		r, err := runConfigsCtx(context.Background(), cfgs, TestScale(), SweepOptions{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: expected a joined error", workers)
		}
		perr := r.Errs["PanicApp"]
		if perr == nil || !strings.Contains(perr.Error(), "panic: synthetic sweep panic") {
			t.Fatalf("workers=%d: PanicApp error = %v", workers, perr)
		}
		if !strings.Contains(perr.Error(), "PanicApp") {
			t.Fatalf("workers=%d: panic error not wrapped with config name: %v", workers, perr)
		}
		if len(r.Ordered) != 2 || r.Ordered[0] != "OkOne" || r.Ordered[1] != "OkTwo" {
			t.Fatalf("workers=%d: Ordered = %v", workers, r.Ordered)
		}
		for _, name := range r.Ordered {
			if r.ByName[name].Trace.NumRecords() == 0 {
				t.Errorf("workers=%d: %s has an empty trace", workers, name)
			}
		}
	}
}

// TestSweepCancellation: a context cancelled mid-sweep stops the pool at the
// next configuration boundary, and configurations that never started are
// reported as cancelled rather than silently missing.
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withExecute(t, func(cfg *apps.Config, opts apps.Options) (*harness.Result, error) {
		if cfg.App == "CancelApp" {
			cancel()
		}
		return apps.Execute(cfg, opts)
	})
	cfgs := []*apps.Config{okConfig("CancelApp"), okConfig("OkOne"), okConfig("OkTwo")}
	r, err := runConfigsCtx(ctx, cfgs, TestScale(), SweepOptions{Workers: 1})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("joined error = %v, want Canceled inside", err)
	}
	for _, name := range []string{"OkOne", "OkTwo"} {
		if e := r.Errs[name]; e == nil || !errors.Is(e, context.Canceled) {
			t.Fatalf("%s error = %v, want cancelled", name, e)
		}
		if !strings.Contains(r.Errs[name].Error(), name) {
			t.Fatalf("%s error not wrapped with config name: %v", name, r.Errs[name])
		}
	}

	// Pre-cancelled: nothing runs at all.
	pre, precancel := context.WithCancel(context.Background())
	precancel()
	r, err = runConfigsCtx(pre, []*apps.Config{okConfig("OkOne")}, TestScale(), SweepOptions{Workers: 2})
	if err == nil || len(r.Ordered) != 0 || !errors.Is(r.Errs["OkOne"], context.Canceled) {
		t.Fatalf("pre-cancelled sweep: Ordered=%v Errs=%v err=%v", r.Ordered, r.Errs, err)
	}
}

// TestSweepTaskTimeout: a hanging configuration is bounded by the per-task
// timeout while the rest of the sweep completes.
func TestSweepTaskTimeout(t *testing.T) {
	unblock := make(chan struct{})
	defer close(unblock)
	withExecute(t, func(cfg *apps.Config, opts apps.Options) (*harness.Result, error) {
		if cfg.App == "HangApp" {
			<-unblock
			return nil, errors.New("unblocked")
		}
		return apps.Execute(cfg, opts)
	})
	cfgs := []*apps.Config{okConfig("HangApp"), okConfig("OkOne")}
	r, err := runConfigsCtx(context.Background(), cfgs, TestScale(),
		SweepOptions{Workers: 2, TaskTimeout: 50 * time.Millisecond})
	if err == nil {
		t.Fatal("expected a joined error from the timed-out cell")
	}
	herr := r.Errs["HangApp"]
	if herr == nil || !strings.Contains(herr.Error(), "timed out after") {
		t.Fatalf("HangApp error = %v, want timeout", herr)
	}
	if len(r.Ordered) != 1 || r.Ordered[0] != "OkOne" {
		t.Fatalf("Ordered = %v, want the surviving configuration", r.Ordered)
	}
}
