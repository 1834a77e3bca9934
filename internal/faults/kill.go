package faults

// Process-level kill points. The fault kinds in this package simulate rank
// crashes *inside* the simulation; kill points crash the real process, which
// is what a crash-recovery harness needs: arm a point, re-exec the program,
// let it SIGKILL itself mid-journal-append, then resume and prove nothing
// committed was lost (see internal/ckpt and the kill-and-recover harness in
// internal/experiments).
//
// A kill point is a named call site (e.g. "ckpt.append.before-fsync",
// "pfs.op.commit") that calls Hit. Arming "point:N" makes the Nth Hit of
// that point kill the process with SIGKILL — no deferred functions, no
// buffered flushes, exactly the discipline a real crash denies a process.
// Points are armed explicitly (ArmKillPoints) or from the SEMFS_KILL
// environment variable (ArmKillPointsFromEnv), which is how the harness
// reaches into a re-exec'd child.

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/storage"
)

// Flight-recorder event classes. Arming marks the run as a crash
// experiment; the fired event (a = hit count) is the final entry before
// SIGKILL and what FormatFlightDump attributes the dump to.
var (
	flightKillArmed = obs.FlightClassFor("kill.armed")
	flightKillFired = obs.FlightClassFor("kill.fired")
)

// KillEnv is the environment variable ArmKillPointsFromEnv reads: a
// comma-separated list of "point:N" specs (N >= 1; the Nth hit kills).
const KillEnv = "SEMFS_KILL"

var kill struct {
	mu    sync.Mutex
	armed map[string]int // point -> hit number that kills (1-based)
	hits  map[string]int // point -> hits so far
}

// ArmKillPoints parses a "point:N[,point:N...]" spec and arms each point: the
// Nth call to Hit(point) will SIGKILL the process. Arming any point installs
// the storage kill hook, through which the durable layers (ckpt.append.*,
// wal.*, storage.*) report their points. Arming a point whose name starts
// with "pfs.op." also installs the pfs kill hook, so data-path operations
// (write/read/commit/close) become killable sites too. An empty spec arms
// nothing.
func ArmKillPoints(spec string) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil
	}
	kill.mu.Lock()
	defer kill.mu.Unlock()
	if kill.armed == nil {
		kill.armed = make(map[string]int)
		kill.hits = make(map[string]int)
	}
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
		kill.armed[point] = n
		obs.Flight().Record(flightKillArmed, -1, 0, int64(n), 0)
		if strings.HasPrefix(point, "pfs.op.") {
			hookPFS = true
		}
	}
	if hookPFS {
		pfs.SetKillPointHook(func(op pfs.OpInfo) { Hit("pfs.op." + op.Kind.String()) })
	}
	storage.SetKillPointHook(Hit)
	return nil
}

// ArmKillPointsFromEnv arms kill points from the SEMFS_KILL environment
// variable; with the variable unset or empty it is a no-op. CLIs call it at
// startup so a crash-recovery harness can arm a child without new flags.
func ArmKillPointsFromEnv() error { return ArmKillPoints(os.Getenv(KillEnv)) }

// Hit records one arrival at a named kill point. If the point is armed and
// this is its fatal hit, the process kills itself with SIGKILL and never
// returns. Unarmed points only count, so instrumented call sites are safe to
// leave in production paths.
func Hit(point string) {
	kill.mu.Lock()
	if kill.armed == nil {
		kill.mu.Unlock()
		return
	}
	kill.hits[point]++
	fatal := kill.armed[point] > 0 && kill.hits[point] == kill.armed[point]
	hits := kill.hits[point]
	kill.mu.Unlock()
	if fatal {
		// Last acts before SIGKILL: put the fatal hit in the flight ring and
		// write the armed dump — the CRC framing tolerates dying mid-write,
		// and the fsync in WriteDump makes a completed dump survive the kill.
		obs.Flight().Record(flightKillFired, -1, 0, int64(hits), 0)
		obs.TriggerFlightDump("kill." + point)
		killProcess()
	}
}

// KillPointHits returns how many times a point has been hit since arming
// (always 0 before the first ArmKillPoints — unarmed processes do not
// count).
func KillPointHits(point string) int {
	kill.mu.Lock()
	defer kill.mu.Unlock()
	return kill.hits[point]
}

// ResetKillPoints disarms every kill point and zeroes the hit counts (test
// support).
func ResetKillPoints() {
	kill.mu.Lock()
	kill.armed, kill.hits = nil, nil
	kill.mu.Unlock()
	pfs.SetKillPointHook(nil)
	storage.SetKillPointHook(nil)
}

// fallbackExit is the last-resort crash when SIGKILL is unavailable or
// failed: exit without running deferred functions, status 128+9.
func fallbackExit() { os.Exit(137) }
