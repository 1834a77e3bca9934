package storage

import "repro/internal/sim"

// backoff computes the delay before retry attempt n (0-based) after a
// transient fault. The nominal delay grows geometrically from BaseNS by
// Multiplier, saturating at CapNS; deterministic jitter then spreads
// retries across [¾·nominal, 5⁄4·nominal] — i.e. jitter is bounded by
// ±25% of the nominal delay. Delay is a pure function of (Seed, attempt):
// it derives a fresh splitmix64 stream per attempt instead of mutating
// shared RNG state, so concurrent retriers with the same seed see the same
// schedule regardless of interleaving. The retry policy (NewRetry) sleeps
// its default schedule.
type backoff struct {
	BaseNS     uint64 // first-retry nominal delay; default 100µs
	Multiplier uint64 // geometric growth per attempt; default 2
	CapNS      uint64 // nominal-delay ceiling; default ~1s
	Seed       uint64 // jitter stream identity; default 1
}

// withDefaults fills zero fields with the documented defaults.
func (b backoff) withDefaults() backoff {
	if b.BaseNS == 0 {
		b.BaseNS = 100_000
	}
	if b.Multiplier == 0 {
		b.Multiplier = 2
	}
	if b.CapNS == 0 {
		b.CapNS = 1 << 30
	}
	if b.Seed == 0 {
		b.Seed = 1
	}
	return b
}

// Delay returns the jittered backoff for the given attempt, in nanoseconds.
func (b backoff) Delay(attempt int) uint64 {
	b = b.withDefaults()
	if attempt < 0 {
		attempt = 0
	}
	d := b.BaseNS
	for i := 0; i < attempt; i++ {
		if d >= b.CapNS/b.Multiplier {
			d = b.CapNS
			break
		}
		d *= b.Multiplier
	}
	if d > b.CapNS {
		d = b.CapNS
	}
	// j ∈ [0, d/2]; delay = d - d/4 + j ∈ [d - d/4, d + d/4].
	j := sim.NewRNG(b.Seed).Split(uint64(attempt)).Uint64() % (d/2 + 1)
	return d - d/4 + j
}
