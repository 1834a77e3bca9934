//go:build unix

package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/apps"
	"repro/internal/ckpt"
	"repro/internal/faults"
	"repro/internal/pfs"
	"repro/internal/storage"
)

// Kill-and-recover harness: the parent re-execs this test binary as a child
// sweep, SIGKILLs it at a randomized journal offset (via SEMFS_KILL), then
// resumes from the checkpoint directory and proves the recovered run is
// indistinguishable from one that never crashed — byte-identical final
// report, and zero journaled-complete configurations re-executed.

const (
	crashDirEnv    = "SEMFS_CRASH_DIR"
	crashOutEnv    = "SEMFS_CRASH_OUT"
	crashSemEnv    = "SEMFS_CRASH_SEM"
	crashResumeEnv = "SEMFS_CRASH_RESUME"
)

// childStats is what a completed child reports back to the parent.
type childStats struct {
	Executed []string // configurations that actually ran
	Replayed []string // configurations served from the journal
}

// renderFinalReport is the deterministic artifact the crash must not be able
// to perturb: every paper table/figure that consumes the sweep's traces.
func renderFinalReport(r *Results) string {
	return Table3(r) + Table4(r) + Figure3(r) + MetaTable(r) + VerdictsReport(r)
}

// TestKillRecoverChild is the re-exec'd child body; without the env gate it
// is skipped. It runs the full registry sweep against the checkpoint
// directory and — if it survives the armed kill point — writes the final
// report and its execution stats for the parent to compare.
func TestKillRecoverChild(t *testing.T) {
	dir := os.Getenv(crashDirEnv)
	if dir == "" {
		t.Skip("not in a kill-and-recover child")
	}
	if err := faults.ArmKillPointsFromEnv(); err != nil {
		t.Fatalf("arming kill points: %v", err)
	}
	sem, err := pfs.ParseSemantics(os.Getenv(crashSemEnv))
	if err != nil {
		t.Fatalf("bad %s: %v", crashSemEnv, err)
	}
	scale := TestScale()
	scale.Semantics = sem

	store, err := OpenCheckpoint(dir, scale)
	if err != nil {
		t.Fatalf("OpenCheckpoint: %v", err)
	}
	defer store.Close()
	r, err := RunAllCtx(context.Background(), scale, SweepOptions{
		Checkpoint: store,
		Resume:     os.Getenv(crashResumeEnv) == "1",
	})
	if err != nil {
		t.Fatalf("checkpointed sweep: %v", err)
	}

	out := os.Getenv(crashOutEnv)
	if err := os.WriteFile(filepath.Join(out, "report.txt"), []byte(renderFinalReport(r)), 0o644); err != nil {
		t.Fatal(err)
	}
	stats := childStats{Executed: r.ExecutedNames(), Replayed: r.ReplayedNames()}
	b, err := json.Marshal(stats)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(out, "stats.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// runChild re-execs the test binary into the child above.
func runChild(t *testing.T, ckptDir, outDir, sem, killSpec string, resume bool) ([]byte, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestKillRecoverChild$", "-test.v")
	cmd.Env = append(os.Environ(),
		crashDirEnv+"="+ckptDir,
		crashOutEnv+"="+outDir,
		crashSemEnv+"="+sem,
		faults.KillEnv+"="+killSpec,
	)
	if resume {
		cmd.Env = append(cmd.Env, crashResumeEnv+"=1")
	} else {
		cmd.Env = append(cmd.Env, crashResumeEnv+"=")
	}
	return cmd.CombinedOutput()
}

func readChildStats(t *testing.T, outDir string) childStats {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(outDir, "stats.json"))
	if err != nil {
		t.Fatalf("child stats: %v", err)
	}
	var s childStats
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatalf("child stats: %v", err)
	}
	return s
}

// TestKillRecover is the acceptance matrix: for each consistency model, a
// checkpointed sweep is SIGKILLed at a randomized journal offset, resumed,
// and compared against an uninterrupted reference run.
func TestKillRecover(t *testing.T) {
	if os.Getenv(crashDirEnv) != "" {
		t.Skip("inside a kill-and-recover child")
	}
	semantics := []pfs.Semantics{pfs.Strong, pfs.Commit, pfs.Session, pfs.Eventual}
	if testing.Short() {
		semantics = semantics[:2]
	}
	// Rotate through every commit-path kill point; the seeded RNG picks the
	// journal offset (the Nth append) so runs are reproducible.
	points := []string{
		"ckpt.append.begin",
		"ckpt.append.torn",
		"ckpt.append.before-fsync",
		"ckpt.append.after-fsync",
	}
	registry := len(apps.Registry())

	for i, sem := range semantics {
		sem := sem
		rng := rand.New(rand.NewSource(0xC0FFEE + int64(i)))
		kill := fmt.Sprintf("%s:%d", points[i%len(points)], 1+rng.Intn(10))
		t.Run(sem.String(), func(t *testing.T) {
			t.Parallel()
			ckptDir := filepath.Join(t.TempDir(), "ckpt")
			refOut := t.TempDir()
			crashOut := t.TempDir()
			resumeOut := t.TempDir()

			// Uninterrupted reference run with its own store.
			out, err := runChild(t, filepath.Join(t.TempDir(), "ref-ckpt"), refOut, sem.String(), "", false)
			if err != nil {
				t.Fatalf("reference run: %v\n%s", err, out)
			}

			// Crash run: must die by SIGKILL, not finish, not error out.
			out, err = runChild(t, ckptDir, crashOut, sem.String(), kill, false)
			if err == nil {
				t.Fatalf("child armed with %s completed instead of dying\n%s", kill, out)
			}
			var ee *exec.ExitError
			ok := false
			if e, isExit := err.(*exec.ExitError); isExit {
				ee = e
				if ws, isWait := ee.Sys().(syscall.WaitStatus); isWait {
					ok = ws.Signaled() && ws.Signal() == syscall.SIGKILL
				}
			}
			if !ok {
				t.Fatalf("child armed with %s did not die by SIGKILL: %v\n%s", kill, err, out)
			}
			if _, err := os.Stat(filepath.Join(crashOut, "report.txt")); !os.IsNotExist(err) {
				t.Fatal("crashed child left a report behind")
			}

			// What the crash left durable, read without repairing anything.
			recovered, rstats, err := ckpt.ReadJournalOn(storage.OS(), ckptDir)
			if err != nil {
				t.Fatalf("ReadJournalOn: %v", err)
			}
			t.Logf("kill=%s: journal after crash: %v (%d keys)", kill, rstats, len(recovered))

			// Resume run: completes, and replays everything the journal holds.
			out, err = runChild(t, ckptDir, resumeOut, sem.String(), "", true)
			if err != nil {
				t.Fatalf("resume run: %v\n%s", err, out)
			}
			stats := readChildStats(t, resumeOut)

			committed := make(map[string]bool, len(recovered))
			for _, k := range recovered {
				committed[k] = true
			}
			for _, name := range stats.Executed {
				if committed[name] {
					t.Errorf("journaled-complete configuration %q was re-executed on resume", name)
				}
			}
			replayed := make(map[string]bool, len(stats.Replayed))
			for _, k := range stats.Replayed {
				replayed[k] = true
			}
			for _, k := range recovered {
				if !replayed[k] {
					t.Errorf("journaled configuration %q was not replayed on resume", k)
				}
			}
			if got := len(stats.Executed) + len(stats.Replayed); got != registry {
				t.Errorf("resume covered %d configurations, want %d", got, registry)
			}

			// The whole point: a crash plus resume is invisible in the output.
			ref, err := os.ReadFile(filepath.Join(refOut, "report.txt"))
			if err != nil {
				t.Fatal(err)
			}
			res, err := os.ReadFile(filepath.Join(resumeOut, "report.txt"))
			if err != nil {
				t.Fatal(err)
			}
			if string(ref) != string(res) {
				t.Errorf("resumed report differs from the uninterrupted reference (%d vs %d bytes)", len(ref), len(res))
			}
		})
	}
}
