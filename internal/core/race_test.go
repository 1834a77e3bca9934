//go:build race

package core

// raceEnabled reports a -race build, under which sync.Pool drops pooled
// values at random, so allocation counts that rely on a pool do not hold.
const raceEnabled = true
