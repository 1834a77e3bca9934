package wal

import (
	"repro/internal/pfs"
)

// Names the external tests reach that only the package itself uses.
var (
	RecoverDirOn = recoverDirOn
	DirectDump   = directDump
)

// Stats returns the log's counters.
func (l *Log) Stats() Stats { return l.statsSnapshot() }

// Degraded reports whether the log has stuck in synchronous write-through
// after a local append failure.
func (l *Log) Degraded() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.degraded
}

// Laminate is a drain barrier plus pfs laminate.
func (l *Log) Laminate(h *pfs.Handle, now uint64) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.takeDeferredLocked(); err != nil {
		return 0, err
	}
	if err := l.drainAllLocked(); err != nil {
		return 0, err
	}
	return h.Laminate(now)
}
