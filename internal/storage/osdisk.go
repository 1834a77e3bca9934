package storage

import (
	"os"
	"sort"
	"sync/atomic"
)

// osdisk is the compatibility-oracle backend: a pass-through to the local
// file system, producing byte-identical layouts to the pre-seam os.* paths
// (pinned by internal/wal's golden-layout test). It is the strongest
// backend in the matrix — POSIX visibility — which is exactly why it alone
// cannot ground the paper's claim
// that applications tolerate weaker stores.
type osdisk struct{}

var osBackend Backend = osdisk{}

// OS returns the local-disk backend.
func OS() Backend { return osBackend }

func (osdisk) Name() string { return "osdisk" }

func (osdisk) Open(path string, flags int, perm uint32) (File, error) {
	f, err := os.OpenFile(path, flags, os.FileMode(perm))
	if err != nil {
		return nil, err
	}
	return &osFile{f: f}, nil
}

func (osdisk) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osdisk) Remove(path string) error {
	return os.Remove(path)
}

func (osdisk) MkdirAll(path string) error { return os.MkdirAll(path, 0o755) }

func (osdisk) List(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

func (osdisk) Stat(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

type osFile struct{ f *os.File }

func (o *osFile) Read(p []byte) (int, error) { return o.f.Read(p) }
func (o *osFile) Seek(off int64, whence int) (int64, error) {
	return o.f.Seek(off, whence)
}
func (o *osFile) ReadAt(p []byte, off int64) (int, error) { return o.f.ReadAt(p, off) }

func (o *osFile) Write(p []byte) (int, error) {
	KillPoint("storage.write.before")
	n, err := o.f.Write(p)
	if err != nil {
		return n, err
	}
	KillPoint("storage.write.after")
	return n, nil
}

func (o *osFile) WriteAt(p []byte, off int64) (int, error) {
	KillPoint("storage.write.before")
	n, err := o.f.WriteAt(p, off)
	if err != nil {
		return n, err
	}
	KillPoint("storage.write.after")
	return n, nil
}

func (o *osFile) Truncate(size int64) error { return o.f.Truncate(size) }

func (o *osFile) Sync() error {
	KillPoint("storage.sync.before")
	if err := o.f.Sync(); err != nil {
		return err
	}
	KillPoint("storage.sync.after")
	return nil
}

func (o *osFile) Close() error { return o.f.Close() }
func (o *osFile) Name() string { return o.f.Name() }

func osIsNotExist(err error) bool { return os.IsNotExist(err) }

func osMkdirTemp(pattern string) (string, error) { return os.MkdirTemp("", pattern) }
func osRemoveAll(dir string) error               { return os.RemoveAll(dir) }

var tmpCounter atomic.Uint64

// uniqueSuffix names temporary directories on backends other than osdisk.
// Process-unique is enough: the directory is private to its creator.
func uniqueSuffix() string {
	n := tmpCounter.Add(1)
	const digits = "0123456789"
	buf := [20]byte{}
	i := len(buf)
	pid := uint64(os.Getpid())
	for _, v := range []uint64{n, pid} {
		for {
			i--
			buf[i] = digits[v%10]
			v /= 10
			if v == 0 {
				break
			}
		}
	}
	return string(buf[i:])
}
