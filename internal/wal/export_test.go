package wal

// Names the external tests reach that only the package itself uses.
var (
	RecoverDirOn = recoverDirOn
	DirectDump   = directDump
)

// Stats returns the log's counters.
func (l *Log) Stats() Stats { return l.stats }

// Degraded reports whether the log has stuck in synchronous write-through
// after a local append failure.
func (l *Log) Degraded() bool { return l.degraded }
