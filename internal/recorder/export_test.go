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
