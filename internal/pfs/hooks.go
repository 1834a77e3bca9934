package pfs

// Fault-injection hooks. A FaultInjector registered on a FileSystem
// intercepts every write, read, commit and close and may perturb it: crash
// the process, tear a write, drop a commit, delay or reorder a publish
// batch, or fail the operation transiently (subject to the client's retry
// policy). The injector is consulted while fs.mu is held, so
// implementations must not call back into the file system; they should be
// cheap, deterministic functions of their own state (see internal/faults
// for the seed-driven implementation).

// OpKind identifies one client operation, in the op history and to the
// fault injector. The injector intercepts the first four.
type OpKind int

const (
	OpWrite OpKind = iota
	OpRead
	OpCommit // fsync/fdatasync (Handle.Commit)
	OpClose
	OpOpen
	OpLaminate
	OpTruncate
)

var opKindNames = [...]string{
	OpWrite:    "write",
	OpRead:     "read",
	OpCommit:   "commit",
	OpClose:    "close",
	OpOpen:     "open",
	OpLaminate: "laminate",
	OpTruncate: "truncate",
}

func (k OpKind) String() string {
	if int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return "op#" + string(rune('0'+int(k)))
}

// OpInfo describes the operation being intercepted.
type OpInfo struct {
	Kind OpKind
	Rank int
	Path string
	Off  int64 // write/read offset
	Len  int64 // write/read length in bytes
	Now  uint64
	// Attempt is 0 for the first try and counts up across transient-error
	// retries of the same operation, letting the injector decide how many
	// attempts fail.
	Attempt int
}

// FaultAction tells the client how to perturb the intercepted operation. The
// zero value leaves the operation untouched.
type FaultAction struct {
	// CrashBefore kills the process before the operation takes effect:
	// pending writes are lost and the call returns ErrCrashed.
	CrashBefore bool
	// CrashAfter lets the operation take effect server-side, then kills the
	// process; the call returns ErrCrashed (the process never observed the
	// completion).
	CrashAfter bool
	// Torn shortens a write to TornKeep bytes (a torn/partial write: the
	// tail of the payload never reaches the servers).
	Torn     bool
	TornKeep int64
	// DropCommit makes a commit a silent no-op: the cost is paid but pending
	// writes stay pending (a lost fsync).
	DropCommit bool
	// PublishDelay adds nanoseconds to the publish time of extents published
	// by this operation — a slow data-server ingest. Visibility is affected
	// only under time-based (eventual) semantics; order-based models assign
	// publish sequence numbers at the same point regardless.
	PublishDelay uint64
	// ReorderPublish publishes this operation's pending batch in reverse
	// order — a server applying a commit's extents out of order. Only
	// observable when the batch self-overlaps (same-process conflicts).
	ReorderPublish bool
	// Transient fails the operation with a transient I/O error. The client
	// re-consults the injector with Attempt incremented, paying backoff per
	// its retry policy, and surfaces ErrTransient once retries are exhausted.
	Transient bool
}

// merge folds one attempt's action b into a: the union of the faults, the
// shortest torn prefix and the longest publish delay. Transient is b's, the
// latest attempt's.
func (a *FaultAction) merge(b FaultAction) {
	a.CrashBefore = a.CrashBefore || b.CrashBefore
	a.CrashAfter = a.CrashAfter || b.CrashAfter
	if b.Torn && (!a.Torn || b.TornKeep < a.TornKeep) {
		a.Torn, a.TornKeep = true, b.TornKeep
	}
	a.DropCommit = a.DropCommit || b.DropCommit
	a.PublishDelay = max(a.PublishDelay, b.PublishDelay)
	a.ReorderPublish = a.ReorderPublish || b.ReorderPublish
	a.Transient = b.Transient
}

// FaultInjector intercepts client operations. Implementations must be safe
// for concurrent calls from distinct ranks and must not call back into the
// FileSystem (the client holds fs.mu across the call).
type FaultInjector interface {
	Intercept(op OpInfo) FaultAction
}

// SetInjector registers (or, with nil, removes) the fault injector consulted
// on every client data-path operation. Set it before the run starts; clients
// read it through the shared FileSystem.
func (fs *FileSystem) SetInjector(inj FaultInjector) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.injector = inj
}

// The client-side retry policy for transient I/O errors (injected by a
// FaultInjector, or in a real deployment returned by overloaded servers):
// an operation is retried up to maxRetries times after its first failure,
// with a simulated backoff of retryBackoffNS doubling per attempt.
const (
	maxRetries            = 3
	retryBackoffNS uint64 = 200_000
)

// interceptLocked consults the injector. Its one caller, call.beginLocked,
// holds fs.mu and has checked that an injector is set.
func (fs *FileSystem) interceptLocked(op OpInfo) FaultAction {
	return fs.injector.Intercept(op)
}
