package sim

// The cost model: the latency/bandwidth constants used to advance the
// logical clocks, in nanoseconds. Absolute values are loosely inspired by
// the paper's environment (Omni-Path network, Lustre over disk/flash) but
// are not claims; the reproduction's claims are about orderings, counts and
// category mixes, not absolute time (see DESIGN.md §5). What matters is that
// I/O operations take tens of microseconds to milliseconds while residual
// clock skew is kept below 20 µs, preserving the paper's "timestamp order of
// conflicting operations matches execution order" property.
const (
	// Network.
	MsgLatency   uint64 = 2_000  // p2p message latency: 2 µs
	msgPerByte   uint64 = 1      // additional ns per byte transferred (~1 GB/s effective)
	BarrierCost  uint64 = 5_000  // cost of a barrier once all ranks arrive: 5 µs
	CollPerByte  uint64 = 1      // per-byte cost inside data-moving collectives
	LocalCompute uint64 = 50_000 // generic per-step compute cost: 50 µs

	// File system client operations (excluding server-side costs, which the
	// PFS adds itself depending on the consistency model).
	OpenCost  uint64 = 20_000  // open/creat: 20 µs
	CloseCost uint64 = 10_000  // close
	MetaCost  uint64 = 8_000   // stat/access/unlink/... metadata op
	SeekCost  uint64 = 500     // lseek/fseek
	SyncCost  uint64 = 100_000 // fsync/fdatasync base cost: 100 µs
	ioBase    uint64 = 10_000  // fixed cost of any read/write: 10 µs
	ioPerByte uint64 = 1       // ns per byte read or written (~1 GB/s)

	// Server-side model used by the PFS.
	MetaRPC uint64 = 10_000 // one metadata-server round trip
	LockRPC uint64 = 12_000 // one lock-manager round trip
)

// IOCost returns the client-side cost of a data operation of n bytes.
func IOCost(n int64) uint64 {
	if n < 0 {
		n = 0
	}
	return ioBase + uint64(n)*ioPerByte
}

// MsgCost returns the cost of moving an n-byte point-to-point message.
func MsgCost(n int64) uint64 {
	if n < 0 {
		n = 0
	}
	return MsgLatency + uint64(n)*msgPerByte
}
