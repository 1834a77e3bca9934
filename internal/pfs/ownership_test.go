package pfs

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/payload"
)

// injectFunc is a FaultInjector from a function.
type injectFunc func(OpInfo) FaultAction

func (f injectFunc) Intercept(op OpInfo) FaultAction { return f(op) }

// A write or read that exhausts its transient retries is counted as one
// transient error after maxRetries retries, and a torn write keeps only
// the bytes the fault let through.
func TestStatsCountOnlyWhatLands(t *testing.T) {
	fs := newFS(Strong)
	failing := false
	fs.SetInjector(injectFunc(func(op OpInfo) FaultAction {
		switch {
		case failing:
			return FaultAction{Transient: true}
		case op.Kind == OpWrite && op.Off == 100:
			return FaultAction{Torn: true, TornKeep: 10}
		}
		return FaultAction{}
	}))
	c := fs.NewClient(0)
	h := mustOpen(t, c, "/f", OCreat|ORdwr, 1)

	failing = true
	if _, err := h.Write(0, payload.Bytes(make([]byte, 64)), 10); !errors.Is(err, ErrTransient) {
		t.Fatalf("write under a persistent transient fault: err = %v, want ErrTransient", err)
	}
	if _, _, err := h.Read(0, 64, 20); !errors.Is(err, ErrTransient) {
		t.Fatalf("read under a persistent transient fault: err = %v, want ErrTransient", err)
	}
	st := fs.Stats()
	if st.TransientErrors != 2 || st.Retries != 6 {
		t.Fatalf("transient accounting = %d errors, %d retries; want 2, 6", st.TransientErrors, st.Retries)
	}

	failing = false
	writeAll(t, h, 100, make([]byte, 100), 30) // torn to 10 bytes
	writeAll(t, h, 0, make([]byte, 4), 40)
	readAll(t, h, 0, 4, 50)
	if got := h.VisibleSize(60); got != 110 {
		t.Fatalf("visible size after a write torn to 10 bytes at 100 = %d, want 110", got)
	}
}

// A written buffer belongs to the file system: strong writes keep it as the
// extent's bytes instead of copying it, so N writes of 64 KiB allocate far
// less than N×64 KiB. A copy that comes back fails here.
func TestStrongWriteKeepsCallerBuffer(t *testing.T) {
	const n, size = 64, 64 << 10
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = bytes.Repeat([]byte{byte(i + 1)}, size)
	}
	fs := newFS(Strong)
	c := fs.NewClient(0)
	h := mustOpen(t, c, "/f", OCreat|ORdwr, 1)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, b := range bufs {
		if _, err := h.Write(int64(i)*size, payload.Bytes(b), uint64(10+i)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(n*size/8); got > limit {
		t.Fatalf("%d strong writes of %d bytes allocated %d bytes, want under %d (is the payload copied?)", n, size, got, limit)
	}
	got := readAll(t, h, int64(n-1)*size, size, 1000)
	if !bytes.Equal(got, bufs[n-1]) {
		t.Fatal("read back differs from the last write")
	}
}
