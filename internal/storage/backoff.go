package storage

import "repro/internal/sim"

// Backoff computes the delay before retry attempt n (0-based) after a
// transient fault. The nominal delay grows geometrically from BaseNS by
// Multiplier, saturating at CapNS; deterministic jitter then spreads
// retries across [¾·nominal, 5⁄4·nominal] — i.e. jitter is bounded by
// ±25% of the nominal delay. Delay is a pure function of (Seed, attempt):
// it derives a fresh splitmix64 stream per attempt instead of mutating
// shared RNG state, so concurrent retriers with the same seed see the same
// schedule regardless of interleaving — the property the faults package
// tests lean on. The WAL drainer and the retry policy share it.
type Backoff struct {
	BaseNS     uint64 // first-retry nominal delay; default 100µs
	Multiplier uint64 // geometric growth per attempt; default 2
	CapNS      uint64 // nominal-delay ceiling; default ~1s
	Seed       uint64 // jitter stream identity; default 1
}

// WithDefaults fills zero fields with the documented defaults.
func (b Backoff) WithDefaults() Backoff {
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
func (b Backoff) Delay(attempt int) uint64 {
	b = b.WithDefaults()
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

// MaxTotalDelay is the analytic worst-case cumulative sleep across the
// first `attempts` retries: each attempt sleeps at most 5⁄4 of its nominal
// delay, and nominals grow geometrically saturating at CapNS. Independent
// of Seed — the bound the retry policy's property tests pin every seed's
// actual total under.
func (b Backoff) MaxTotalDelay(attempts int) uint64 {
	b = b.WithDefaults()
	var total uint64
	d := b.BaseNS
	for i := 0; i < attempts; i++ {
		if d > b.CapNS {
			d = b.CapNS
		}
		total += d + d/4
		if d >= b.CapNS/b.Multiplier {
			d = b.CapNS
		} else {
			d *= b.Multiplier
		}
	}
	return total
}
