package obs

import (
	"encoding/json"
	"fmt"
)

// Snapshot is a point-in-time copy of every instrument in a registry.
// Export is deterministic: encoding/json sorts map keys and histogram
// buckets are ascending, so two identical runs produce byte-identical
// output (the property the CI telemetry step checks).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies every registered instrument, touched or not: its key set
// is the full instrument namespace (the schema golden pins it). A -metrics
// file holds only the touched part (see touched).
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// touched drops every instrument the run left untouched: a counter or
// gauge at 0, a histogram with no observation. A binary registers every
// instrument it links, so without this a plain analysis would export the
// simulation's and the WAL's instruments as zeros.
func (s Snapshot) touched() Snapshot {
	for name, v := range s.Counters {
		if v == 0 {
			delete(s.Counters, name)
		}
	}
	for name, v := range s.Gauges {
		if v == 0 {
			delete(s.Gauges, name)
		}
	}
	for name, h := range s.Histograms {
		if h.Count == 0 {
			delete(s.Histograms, name)
		}
	}
	return s
}

// encodeJSON renders the snapshot as indented JSON with sorted keys.
func (s Snapshot) encodeJSON() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("obs: marshal snapshot: %w", err)
	}
	return append(b, '\n'), nil
}
