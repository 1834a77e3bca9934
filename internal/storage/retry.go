package storage

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// RetryOptions tunes the policy wrapper NewRetry returns.
type RetryOptions struct {
	// Sleep replaces time.Sleep, for deterministic tests. Nil = real sleep.
	Sleep func(time.Duration)
	// Now replaces time.Now for the deadline clock, for tests.
	Now func() time.Time
}

// The retry budget: at most maxAttempts tries per operation (first try
// included), sleeping backoff's default schedule between them,
// and no new attempt once retryDeadline of wall time (backoff sleeps
// included) has passed since the first.
const (
	maxAttempts   = 5
	retryDeadline = 2 * time.Second
)

func (o RetryOptions) withDefaults() RetryOptions {
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// retryStats counts what the policy layer did.
type retryStats struct {
	Retries   int64 // extra attempts beyond the first
	SleepNS   int64 // cumulative backoff sleep
	Exhausted int64 // operations that ran out of attempts or deadline
}

// retrier wraps a backend with the degrade ladder's first rung: transient
// failures are retried with bounded deterministic backoff; only when an
// operation exhausts its budget does the error escape, rewrapped as
// errUnavailable (deliberately shedding errTransient — the layer above
// must degrade, not keep retrying). Mutating operations are safe to retry
// because the backends guarantee transient failures fire before any state
// changes (see flaky.go); torn writes return permanent errors and pass
// through on the first attempt.
type retrier struct {
	inner Backend
	opts  RetryOptions

	retries   atomic.Int64
	sleepNS   atomic.Int64
	exhausted atomic.Int64
}

// NewRetry wraps inner with the retry/degrade policy.
func NewRetry(inner Backend, opts RetryOptions) Backend {
	return &retrier{inner: inner, opts: opts.withDefaults()}
}

func (r *retrier) Name() string    { return "retry(" + r.inner.Name() + ")" }
func (r *retrier) Unwrap() Backend { return r.inner }

// Stats snapshots policy activity.
func (r *retrier) Stats() retryStats {
	return retryStats{
		Retries:   r.retries.Load(),
		SleepNS:   r.sleepNS.Load(),
		Exhausted: r.exhausted.Load(),
	}
}

// Healthy reports whether the policy has never had to give up on the
// backend. Sticky-false after the first exhaustion: the layers above use
// it as the "stop trusting this store" signal.
func (r *retrier) Healthy() bool { return r.exhausted.Load() == 0 }

// do runs op under the attempt/deadline budget. op must be side-effect-free
// on errTransient failures (the backend contract). The operation is named by
// (verb, name) parts so the healthy path never pays a string concatenation —
// the message is only assembled when the budget is exhausted.
func (r *retrier) do(verb, name string, op func() error) error {
	start := r.opts.Now()
	var err error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			d := time.Duration(backoff{}.Delay(attempt - 1))
			remain := retryDeadline - r.opts.Now().Sub(start)
			if remain <= 0 || d > remain {
				break
			}
			r.opts.Sleep(d)
			r.sleepNS.Add(int64(d))
			r.retries.Add(1)
		}
		err = op()
		if err == nil {
			return nil
		}
		if !errors.Is(err, errTransient) {
			return err
		}
	}
	r.exhausted.Add(1)
	return fmt.Errorf("%w: %s %s gave up after %d attempts: %v",
		errUnavailable, verb, name, maxAttempts, err)
}

func (r *retrier) Open(path string, flags int, perm uint32) (File, error) {
	var f File
	err := r.do("open", path, func() error {
		var e error
		f, e = r.inner.Open(path, flags, perm)
		return e
	})
	if err != nil {
		return nil, err
	}
	return &retryFile{inner: f, r: r}, nil
}

func (r *retrier) ReadFile(path string) ([]byte, error) {
	var b []byte
	err := r.do("read", path, func() error {
		var e error
		b, e = r.inner.ReadFile(path)
		return e
	})
	return b, err
}

func (r *retrier) Remove(path string) error {
	return r.do("remove", path, func() error { return r.inner.Remove(path) })
}

func (r *retrier) MkdirAll(path string) error {
	return r.do("mkdir", path, func() error { return r.inner.MkdirAll(path) })
}

func (r *retrier) List(dir string) ([]string, error) {
	var names []string
	err := r.do("list", dir, func() error {
		var e error
		names, e = r.inner.List(dir)
		return e
	})
	return names, err
}

func (r *retrier) Stat(path string) (int64, error) {
	var n int64
	err := r.do("stat", path, func() error {
		var e error
		n, e = r.inner.Stat(path)
		return e
	})
	return n, err
}

type retryFile struct {
	inner File
	r     *retrier
}

func (f *retryFile) Read(p []byte) (int, error)              { return f.inner.Read(p) }
func (f *retryFile) ReadAt(p []byte, off int64) (int, error) { return f.inner.ReadAt(p, off) }
func (f *retryFile) Seek(off int64, w int) (int64, error)    { return f.inner.Seek(off, w) }
func (f *retryFile) Truncate(size int64) error               { return f.inner.Truncate(size) }
func (f *retryFile) Name() string                            { return f.inner.Name() }
func (f *retryFile) Close() error                            { return f.inner.Close() }

func (f *retryFile) Write(p []byte) (int, error) {
	var n int
	err := f.r.do("write", f.inner.Name(), func() error {
		var e error
		n, e = f.inner.Write(p)
		return e
	})
	return n, err
}

func (f *retryFile) WriteAt(p []byte, off int64) (int, error) {
	var n int
	err := f.r.do("writeat", f.inner.Name(), func() error {
		var e error
		n, e = f.inner.WriteAt(p, off)
		return e
	})
	return n, err
}

func (f *retryFile) Sync() error {
	return f.r.do("sync", f.inner.Name(), func() error { return f.inner.Sync() })
}

// Health reports whether b (or any wrapper in its chain) has declared the
// store unhealthy. Backends without a health signal are always healthy.
func Health(b Backend) bool {
	type healthy interface{ Healthy() bool }
	for {
		if h, ok := b.(healthy); ok && !h.Healthy() {
			return false
		}
		u, ok := b.(unwrapper)
		if !ok {
			return true
		}
		b = u.Unwrap()
	}
}
