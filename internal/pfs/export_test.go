package pfs

// WeakerThan reports whether s is a strictly weaker model than other
// (strong > commit > session > eventual).
func (s Semantics) WeakerThan(other Semantics) bool { return s > other }

// LookupSystem returns the registry entry for a named file system.
func LookupSystem(name string) (SystemInfo, bool) {
	for _, s := range Registry() {
		if s.Name == name {
			return s, true
		}
	}
	return SystemInfo{}, false
}
