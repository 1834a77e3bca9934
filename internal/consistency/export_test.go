package consistency

// Len reports how many events have been recorded.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Reset discards the recorded history.
func (l *Log) Reset() {
	l.mu.Lock()
	l.events = nil
	l.mu.Unlock()
}
