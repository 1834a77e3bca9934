package storage

import (
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/frame"
)

// KillPointFunc observes a named kill point. The faults package installs
// its process-kill counter here when SEMFS_KILL arms any point; storage
// itself never imports faults, which keeps the wal → storage layering
// acyclic while chaos code in faults drives backend-routed runs. This is
// the one hook every durable layer's named points go through:
//
//	storage.{write,sync}.{before,after}   backend operations
//	wal.append.*                          AppendFrame stages
//	wal.drain.{before,after}-publish      the WAL drainer
type KillPointFunc func(point string)

var killHook atomic.Pointer[KillPointFunc]

// SetKillPointHook installs fn as the process-wide kill-point observer.
// Pass nil to remove it. The nil fast path costs one atomic load.
func SetKillPointHook(fn KillPointFunc) {
	if fn == nil {
		killHook.Store(nil)
		return
	}
	killHook.Store(&fn)
}

// KillPoint reports one arrival at a named kill point to the installed hook.
func KillPoint(point string) {
	if fn := killHook.Load(); fn != nil {
		(*fn)(point)
	}
}

// OpenFrameLog opens (creating if needed) the frame log at path on b for
// appending: it scans the existing frames with frame.Scan, handing each
// payload to visit, truncates the torn tail (if any) and positions the file
// at the end of the last intact frame, so the next append lands on a clean
// boundary.
func OpenFrameLog(b Backend, path, magic string, maxLen int, visit func([]byte) bool) (File, frame.Stats, error) {
	f, err := b.Open(path, OCreate|oRdwr, 0o644)
	if err != nil {
		return nil, frame.Stats{}, err
	}
	st, err := frame.Scan(f, magic, maxLen, visit)
	if err == nil {
		err = f.Truncate(st.Good)
	}
	if err == nil {
		_, err = f.Seek(st.Good, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, st, fmt.Errorf("salvaging %s: %w", path, err)
	}
	return f, st, nil
}

// AppendFrame writes one encoded frame to f and, if sync, makes it
// durable. The frame is written in two halves with kill points bracketing
// every stage of the commit, so a crash-recovery harness can die with the
// log untouched (<point>.begin), with a genuinely torn tail (.torn), with a
// complete but unsynced frame (.before-fsync), or just after the commit
// (.after-fsync). Point names are built only while a hook is installed.
func AppendFrame(f File, rec []byte, point string, sync bool) error {
	hook := killHook.Load()
	hit := func(stage string) {
		if hook != nil {
			(*hook)(point + stage)
		}
	}
	hit(".begin")
	half := len(rec) / 2
	if _, err := f.Write(rec[:half]); err != nil {
		return err
	}
	hit(".torn")
	if _, err := f.Write(rec[half:]); err != nil {
		return err
	}
	hit(".before-fsync")
	if sync {
		if err := f.Sync(); err != nil {
			return err
		}
	}
	hit(".after-fsync")
	return nil
}
