package pfs

// Operation-history recording. A HistoryRecorder registered on a FileSystem
// receives one HistoryEvent per client call, a call the client rejects
// (crashed client, closed handle, wrong access mode) or a fault fails
// included, stamped with a total-order logical sequence number assigned
// under fs.mu — the same lock that serializes the operations themselves,
// so the recorded order IS the linearization the file system executed.
// The history is the input of the formal consistency checker
// (internal/consistency), which re-derives publication and visibility from
// the formal model definitions alone and compares the predicted read
// results against the recorded ones.
//
// Like FaultInjector, the recorder is invoked while fs.mu is held:
// implementations must not call back into the file system and should be
// cheap appends (see consistency.Log).

// HistoryEvent is one recorded client operation.
type HistoryEvent struct {
	// Seq is the total-order logical timestamp (1-based), assigned under
	// fs.mu in the order operations took effect.
	Seq  uint64
	Kind OpKind
	Rank int
	Path string
	// Handle identifies the open file description: every operation through
	// one Open carries the same value. Zero for failed opens.
	Handle uint64
	// Flags carries the POSIX open flags (OpOpen only); an O_TRUNC open
	// truncates the file as part of the operation.
	Flags int
	// Off is the write/read offset, or the new length for OpTruncate.
	Off int64
	// Len is the payload length for OpWrite, the *requested* length for
	// OpRead (the returned length is len(Data)).
	Len int64
	// Data is the payload stored by a write or the bytes a read returned
	// (copies — safe to retain).
	Data []byte
	// Digest is an FNV-1a hash of Data, for display and cheap comparison.
	Digest uint64
	// Now is the simulated time of the operation (visibility input for
	// time-based models).
	Now uint64
	// Err is the failure the operation surfaced ("" on success). Failed
	// operations left the file system unchanged.
	Err string
}

// HistoryRecorder receives every client data-path operation in total order.
// Implementations must be cheap, must not call back into the FileSystem
// (the client holds fs.mu across the call), and must retain or copy the
// event before returning if they keep it.
type HistoryRecorder interface {
	Record(ev HistoryEvent)
}

// SetHistoryRecorder registers (or, with nil, removes) the operation-history
// recorder. Set it before the run starts; recording covers every client of
// this file system.
func (fs *FileSystem) SetHistoryRecorder(rec HistoryRecorder) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.history = rec
}

// historyDigest is the FNV-1a hash the recorder stamps into Digest.
func historyDigest(data []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range data {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// recordHistoryLocked stamps and delivers one event. Callers hold fs.mu.
// Data must already be a private copy (or otherwise never mutated again).
func (fs *FileSystem) recordHistoryLocked(ev *HistoryEvent) {
	if fs.history == nil {
		return
	}
	fs.histSeq++
	ev.Seq = fs.histSeq
	ev.Digest = historyDigest(ev.Data)
	fs.history.Record(*ev)
}

// errString renders an operation error for HistoryEvent.Err.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
