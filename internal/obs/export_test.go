package obs

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil || !g.on.Load() {
		return
	}
	g.v.Add(delta)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Len returns the number of ended spans collected so far.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
