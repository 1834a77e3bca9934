package recorder

// FuncByName returns the Func with the given name, or FuncUnknown.
func FuncByName(name string) Func {
	for f, n := range funcNames {
		if n == name {
			return Func(f)
		}
	}
	return FuncUnknown
}

// IsCommitOp reports whether the record acts as a "commit" under commit
// consistency semantics. Per the paper (§6.3, footnote 2): fsync,
// fdatasync, fflush, fclose or close.
func (r *Record) IsCommitOp() bool {
	if r.Layer != LayerPOSIX {
		return false
	}
	switch r.Func {
	case FuncFsync, FuncFdatasync, FuncFflush, FuncFclose, FuncClose:
		return true
	}
	return false
}
