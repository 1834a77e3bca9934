package storage

// MaxTotalDelay is the analytic worst-case cumulative sleep across the
// first `attempts` retries: each attempt sleeps at most 5⁄4 of its nominal
// delay, and nominals grow geometrically saturating at CapNS. Independent
// of Seed — the bound the retry policy's property tests pin every seed's
// actual total under.
func (b backoff) MaxTotalDelay(attempts int) uint64 {
	b = b.withDefaults()
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
