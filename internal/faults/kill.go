package faults

// Process-level kill points. The fault kinds in this package simulate rank
// crashes *inside* the simulation; kill points crash the real process, which
// is what a crash-recovery harness needs: arm a point, re-exec the program,
// let it SIGKILL itself mid-log-append, then recover and prove no
// acknowledged write was lost (see the WAL kill matrix in internal/wal).
//
// A kill point is a named call site (e.g. "wal.append.before-fsync",
// "pfs.op.commit") that calls killHit. Arming "point:N" makes the Nth killHit of
// that point kill the process with SIGKILL — no deferred functions, no
// buffered flushes, exactly the discipline a real crash denies a process.
// Points are armed explicitly (armKillPoints) or from the SEMFS_KILL
// environment variable (ArmKillPointsFromEnv), which is how the harness
// reaches into a re-exec'd child.

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"

	"repro/internal/pfs"
	"repro/internal/storage"
)

// KillEnv is the environment variable ArmKillPointsFromEnv reads: a
// comma-separated list of "point:N" specs (N >= 1; the Nth hit kills).
const KillEnv = "SEMFS_KILL"

var kill struct {
	mu    sync.Mutex
	armed map[string]int // point -> hit number that kills (1-based)
	hits  map[string]int // point -> hits so far
}

// armKillPoints parses a "point:N[,point:N...]" spec and arms each point: the
// Nth call to killHit(point) will SIGKILL the process. Arming any point installs
// the storage kill hook, through which the durable layers (wal.*,
// storage.*) report their points. Arming a point whose name starts
// with "pfs.op." also installs the pfs kill hook, so data-path operations
// (write/read/commit/close) become killable sites too. An empty spec arms
// nothing, and neither does a spec with any bad part: the whole spec is
// parsed before the first point is armed.
func armKillPoints(spec string) error {
	armed := make(map[string]int)
	hookPFS := false
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		point, nth, ok := strings.Cut(part, ":")
		if !ok {
			return fmt.Errorf("faults: kill spec %q: want point:N", part)
		}
		n, err := strconv.Atoi(nth)
		if err != nil || n < 1 {
			return fmt.Errorf("faults: kill spec %q: N must be a positive integer", part)
		}
		armed[point] = n
		if strings.HasPrefix(point, "pfs.op.") {
			hookPFS = true
		}
	}
	if len(armed) == 0 {
		return nil
	}
	kill.mu.Lock()
	defer kill.mu.Unlock()
	if kill.armed == nil {
		kill.armed = make(map[string]int)
		kill.hits = make(map[string]int)
	}
	for point, n := range armed {
		kill.armed[point] = n
	}
	if hookPFS {
		pfs.SetKillPointHook(func(op pfs.OpInfo) { killHit("pfs.op." + op.Kind.String()) })
	}
	storage.SetKillPointHook(killHit)
	return nil
}

// ArmKillPointsFromEnv arms kill points from the SEMFS_KILL environment
// variable; with the variable unset or empty it is a no-op. CLIs call it at
// startup so a crash-recovery harness can arm a child without new flags.
func ArmKillPointsFromEnv() error { return armKillPoints(os.Getenv(KillEnv)) }

// killHit records one arrival at a named kill point. If the point is armed and
// this is its fatal hit, the process kills itself with SIGKILL and never
// returns. Unarmed points only count, so instrumented call sites are safe to
// leave in production paths.
func killHit(point string) {
	kill.mu.Lock()
	if kill.armed == nil {
		kill.mu.Unlock()
		return
	}
	kill.hits[point]++
	fatal := kill.armed[point] > 0 && kill.hits[point] == kill.armed[point]
	kill.mu.Unlock()
	if fatal {
		killProcess()
	}
}

// fallbackExit is the last-resort crash when SIGKILL is unavailable or
// failed: exit without running deferred functions, status 128+9.
func fallbackExit() { os.Exit(137) }
