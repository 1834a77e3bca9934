package core

import (
	"sort"

	"repro/internal/recorder"
)

// originName maps a record's originating layer to the categories Figure 3
// uses: the MPI library (MPI-IO), HDF5, other I/O libraries, or the
// application itself.
func originName(l recorder.Layer) string {
	switch l {
	case recorder.LayerMPIIO:
		return "MPI"
	case recorder.LayerHDF5:
		return "HDF5"
	case recorder.LayerNetCDF:
		return "NetCDF"
	case recorder.LayerADIOS:
		return "ADIOS"
	case recorder.LayerSilo:
		return "Silo"
	default:
		return "App"
	}
}

// Census is the Figure 3 data for one application configuration: for each
// POSIX metadata/utility operation used, how many calls were issued and
// from which layer they originated.
type Census struct {
	// Counts[origin][func] = number of calls.
	Counts map[string]map[recorder.Func]int
}

// Funcs returns the metadata operations observed, sorted by name.
func (c *Census) Funcs() []recorder.Func {
	set := make(map[recorder.Func]bool)
	for _, m := range c.Counts {
		for f := range m {
			set[f] = true
		}
	}
	out := make([]recorder.Func, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// Origins returns the layer categories observed, sorted.
func (c *Census) Origins() []string {
	out := make([]string, 0, len(c.Counts))
	for o := range c.Counts {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// Total returns the total number of metadata calls.
func (c *Census) Total() int {
	n := 0
	for _, m := range c.Counts {
		for _, v := range m {
			n += v
		}
	}
	return n
}

// Used reports whether a given operation appears at all.
func (c *Census) Used(f recorder.Func) bool {
	for _, m := range c.Counts {
		if m[f] > 0 {
			return true
		}
	}
	return false
}
