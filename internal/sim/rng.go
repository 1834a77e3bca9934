package sim

// RNG is a small deterministic pseudo-random generator (splitmix64). The
// simulation must be reproducible run-to-run, so all randomness — clock
// skews, jitter in operation costs, synthetic data sizes — is drawn from
// seeded RNGs rather than from math/rand's global state.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Distinct streams (one per
// rank, say) should be derived with Split.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split derives an independent generator from this one, keyed by id. The
// derivation is deterministic: the same (seed, id) always yields the same
// stream.
func (r *RNG) Split(id uint64) *RNG {
	mixed := splitmix(r.state + 0x9e3779b97f4a7c15*(id+1))
	return &RNG{state: mixed}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// int63n returns a pseudo-random int64 in [0, n). It panics if n <= 0.
func (r *RNG) int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// SkewNS returns a pseudo-random clock skew in [-maxAbs, +maxAbs] ns.
func (r *RNG) SkewNS(maxAbs int64) int64 {
	if maxAbs <= 0 {
		return 0
	}
	return r.int63n(2*maxAbs+1) - maxAbs
}
