//go:build unix

package wal_test

// Kill-and-recover harness for the write-ahead log: the parent re-execs this
// test binary as a burst child, SIGKILLs it at an armed wal.* kill point
// (mid-append, torn frame, either side of fsync, either side of a drain
// publish), then recovers the log directory in-process. RecoverBurst itself
// carries the acceptance assertions: zero acked-write loss (ack-file floor),
// byte-exact salvaged records, a replay history the model's formal spec
// accepts, and final state byte-identical to an uninterrupted run of the
// same prefixes.

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/faults"
	"repro/internal/pfs"
	"repro/internal/storage"
	"repro/internal/wal"
)

const (
	walKillDirEnv     = "SEMFS_WAL_DIR"
	walKillSemEnv     = "SEMFS_WAL_SEM"
	walKillBackendEnv = "SEMFS_WAL_BACKEND"
)

// walKillSpec is the burst both sides of the harness agree on; only Log.Dir
// and the storage backend vary per cell. Small enough that the child
// re-execs stay cheap, large enough that every kill point fires mid-run
// with records already acked.
func walKillSpec(dir string, sem pfs.Semantics, b storage.Backend) wal.BurstSpec {
	return wal.BurstSpec{
		Semantics:   sem,
		Ranks:       2,
		Records:     32,
		Block:       256,
		CommitEvery: 8,
		Log:         wal.Options{Dir: dir, Backend: b},
	}
}

// killBackend resolves a CLI-style backend spec and wraps it in the retry
// policy — the same stack `semrepro -backend` runs, so a flaky cell's
// transient faults are absorbed and the burst keeps appending (and keeps
// hitting kill points) instead of degrading to write-through.
func killBackend(t *testing.T, spec string) storage.Backend {
	t.Helper()
	b, err := storage.ParseSpec(spec)
	if err != nil {
		t.Fatalf("backend spec %q: %v", spec, err)
	}
	return storage.NewRetry(b, storage.RetryOptions{})
}

// TestWALKillRecoverChild is the re-exec'd child body; without the env gate
// it is skipped. It arms SEMFS_KILL and runs the burst on the backend named
// by SEMFS_WAL_BACKEND — with a wal.* point armed it must die by SIGKILL
// before finishing.
func TestWALKillRecoverChild(t *testing.T) {
	dir := os.Getenv(walKillDirEnv)
	if dir == "" {
		t.Skip("not in a wal kill-and-recover child")
	}
	if err := faults.ArmKillPointsFromEnv(); err != nil {
		t.Fatalf("arming kill points: %v", err)
	}
	sem, err := pfs.ParseSemantics(os.Getenv(walKillSemEnv))
	if err != nil {
		t.Fatalf("bad %s: %v", walKillSemEnv, err)
	}
	b := killBackend(t, os.Getenv(walKillBackendEnv))
	res, err := wal.RunBurst(walKillSpec(dir, sem, b))
	if err != nil {
		t.Fatalf("burst: %v", err)
	}
	if !res.Spec.OK() {
		t.Fatalf("burst history rejected: %s", res.Spec.Violation)
	}
}

func runWALKillChild(t *testing.T, dir, sem, backendSpec, killSpec string) ([]byte, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestWALKillRecoverChild$", "-test.v")
	cmd.Env = append(os.Environ(),
		walKillDirEnv+"="+dir,
		walKillSemEnv+"="+sem,
		walKillBackendEnv+"="+backendSpec,
		faults.KillEnv+"="+killSpec,
	)
	return cmd.CombinedOutput()
}

// killCell describes one backend column of the kill matrix: how to derive
// the child's backend spec from a seed, and the recovery backend spec (the
// flaky wrapper is a child-side fault injector — the bytes land on its
// base, which is what recovery reads).
type killCell struct {
	name        string
	childSpec   func(seed int64) string
	recoverSpec string
}

var killCells = []killCell{
	{
		name:        "osdisk",
		childSpec:   func(int64) string { return "osdisk" },
		recoverSpec: "osdisk",
	},
	{
		// Transient-only faults under the retry policy: the burst converges
		// through the blips, then dies at the kill point like everyone else.
		// The real bytes live on the flaky backend's osdisk base.
		name: "flaky",
		childSpec: func(seed int64) string {
			return fmt.Sprintf("flaky:seed=%d,kinds=transient", seed)
		},
		recoverSpec: "osdisk",
	},
}

// TestWALKillRecover is the acceptance matrix: every wal.* kill point x
// every consistency model x every storage backend. Each cell SIGKILLs a
// burst child at the armed point, then recovery must return every
// acknowledged write, byte-exact, replaying to spec-accepted,
// byte-identical state.
func TestWALKillRecover(t *testing.T) {
	if os.Getenv(walKillDirEnv) != "" {
		t.Skip("inside a wal kill-and-recover child")
	}
	semantics := pfs.AllSemantics()
	points := []string{
		"wal.append.begin",
		"wal.append.torn",
		"wal.append.before-fsync",
		"wal.append.after-fsync",
		"wal.drain.before-publish",
		"wal.drain.after-publish",
	}
	if testing.Short() {
		semantics = semantics[:2]
		points = []string{"wal.append.torn", "wal.drain.before-publish"}
	}
	for i, sem := range semantics {
		sem := sem
		rng := rand.New(rand.NewSource(0x5A1D + int64(i)))
		t.Run(sem.String(), func(t *testing.T) {
			t.Parallel()
			for _, cell := range killCells {
				for _, point := range points {
					// Seeded hit count: deep enough that acked records exist,
					// shallow enough the burst cannot finish first.
					kill := fmt.Sprintf("%s:%d", point, 2+rng.Intn(10))
					dir := filepath.Join(t.TempDir(), "wal")
					childSpec := cell.childSpec(1 + rng.Int63n(1<<20))

					out, err := runWALKillChild(t, dir, sem.String(), childSpec, kill)
					if err == nil {
						t.Fatalf("[%s] child armed with %s completed instead of dying\n%s", cell.name, kill, out)
					}
					ee, isExit := err.(*exec.ExitError)
					if !isExit {
						t.Fatalf("[%s] child armed with %s: %v\n%s", cell.name, kill, err, out)
					}
					ws, isWait := ee.Sys().(syscall.WaitStatus)
					if !isWait || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
						t.Fatalf("[%s] child armed with %s did not die by SIGKILL: %v\n%s", cell.name, kill, err, out)
					}

					rb, err := storage.ParseSpec(cell.recoverSpec)
					if err != nil {
						t.Fatal(err)
					}
					rep, err := wal.RecoverBurst(walKillSpec(dir, sem, rb))
					if err != nil {
						t.Fatalf("[%s] recovery after %s: %v", cell.name, kill, err)
					}
					t.Logf("[%s] kill=%s: recovered %d record(s) (%v, acked floor %v, dropped %d torn)",
						cell.name, kill, rep.Records, rep.PerRank, rep.Acked, rep.Dropped)
				}
			}
		})
	}
}
