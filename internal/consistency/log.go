package consistency

import (
	"sync"

	"repro/internal/pfs"
)

// Log is the standard pfs.HistoryRecorder: a thread-safe append-only list
// of recorded operations. The pfs delivers events under its own lock in
// total order, but distinct FileSystems may share one Log (they do not in
// practice), and tests read the log while runs drain — so the Log carries
// its own mutex.
type Log struct {
	mu     sync.Mutex
	events []pfs.HistoryEvent
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// Record implements pfs.HistoryRecorder.
func (l *Log) Record(ev pfs.HistoryEvent) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

// Events returns a snapshot of the recorded history in total order.
func (l *Log) Events() []pfs.HistoryEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]pfs.HistoryEvent(nil), l.events...)
}
