package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// objstore is a flat-namespace object store with write-then-publish
// visibility, the backend whose native semantics are genuinely eventual.
// Every caller path is an opaque key; a "file" is the newest *visible*
// immutable version of its key. Writes buffer in the handle; Sync uploads
// the whole buffer as a new version whose publish instant lies
// VisibilityDelay in the future — durable immediately (the version object
// is fsync'd host state, so an acked write survives SIGKILL), but readable
// by nobody until the publish instant passes. That lag is real, not
// simulated: a reader that looks too early sees the previous version or
// nothing, exactly the propagation window "Exploring Scientific
// Application Performance Using Large Scale Object Storage" (PAPERS.md)
// measures on Rados/S3-style stores.
//
// On-host layout under Root (the store's persistent state, shared by every
// process that opens the same Root):
//
//	obj/<enckey>.v<gen>.<publishUnixNano>   one immutable version
//	stage/<enckey>.<suffix>                 in-flight upload staging
type objstore struct {
	root  string
	delay time.Duration

	mu sync.Mutex // serializes publish (gen allocation) per process
}

// ObjStoreOptions configures an object-store backend.
type ObjStoreOptions struct {
	// Root is the host directory holding the store's persistent state. Two
	// backends opened on the same Root see the same objects — that is how a
	// kill-and-recover harness's second process finds the first one's
	// versions. Empty means a fresh private temp directory (in-process
	// tests and chaos runs).
	Root string
	// VisibilityDelay is how long after a successful Sync a version stays
	// invisible to readers (default 25ms).
	VisibilityDelay time.Duration
}

// NewObjStore opens (creating if needed) the object store rooted at
// o.Root.
func NewObjStore(o ObjStoreOptions) Backend {
	if o.VisibilityDelay <= 0 {
		o.VisibilityDelay = 25 * time.Millisecond
	}
	root := o.Root
	if root == "" {
		d, err := os.MkdirTemp("", "semfs-objstore-")
		if err != nil {
			// No host temp space: nothing downstream can work either.
			panic(fmt.Sprintf("storage: objstore temp root: %v", err))
		}
		root = d
	}
	_ = os.MkdirAll(filepath.Join(root, "obj"), 0o755)
	_ = os.MkdirAll(filepath.Join(root, "stage"), 0o755)
	return &objstore{root: root, delay: o.VisibilityDelay}
}

func (s *objstore) Name() string              { return "objstore" }
func (s *objstore) PublishLag() time.Duration { return s.delay }

var keyEncoder = strings.NewReplacer("%", "%P", "/", "%S")
var keyDecoder = strings.NewReplacer("%S", "/", "%P", "%")

func encodeKey(path string) string { return keyEncoder.Replace(path) }
func decodeKey(enc string) string  { return keyDecoder.Replace(enc) }

// version is one parsed obj/ entry.
type version struct {
	file    string // host file name under obj/
	gen     uint64
	publish int64 // UnixNano visibility instant
}

// versions lists key's versions, oldest gen first.
func (s *objstore) versions(key string) ([]version, error) {
	enc := encodeKey(key)
	ents, err := os.ReadDir(filepath.Join(s.root, "obj"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	prefix := enc + ".v"
	var out []version
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		rest := name[len(prefix):]
		genStr, pubStr, ok := strings.Cut(rest, ".")
		if !ok {
			continue
		}
		gen, err1 := strconv.ParseUint(genStr, 10, 64)
		pub, err2 := strconv.ParseInt(pubStr, 10, 64)
		if err1 != nil || err2 != nil {
			continue
		}
		out = append(out, version{file: name, gen: gen, publish: pub})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].gen < out[j].gen })
	return out, nil
}

// newestVisible returns key's newest published version at now, or ok=false.
func (s *objstore) newestVisible(key string, now int64) (version, bool, error) {
	vs, err := s.versions(key)
	if err != nil {
		return version{}, false, err
	}
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].publish <= now {
			return vs[i], true, nil
		}
	}
	return version{}, false, nil
}

func (s *objstore) readVersion(v version) ([]byte, error) {
	return os.ReadFile(filepath.Join(s.root, "obj", v.file))
}

// publish uploads data as key's next version: staged, fsync'd, renamed
// into obj/ (host rename is what makes the version durable-or-absent,
// never torn), visible after the store's delay.
func (s *objstore) publish(key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	vs, err := s.versions(key)
	if err != nil {
		return err
	}
	var gen uint64 = 1
	if n := len(vs); n > 0 {
		gen = vs[n-1].gen + 1
	}
	enc := encodeKey(key)
	stage := filepath.Join(s.root, "stage", enc+"."+uniqueSuffix())
	f, err := os.OpenFile(stage, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(stage)
		return err
	}
	KillPoint("storage.sync.before")
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(stage)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(stage)
		return err
	}
	publish := time.Now().UnixNano() + s.delay.Nanoseconds()
	final := filepath.Join(s.root, "obj", fmt.Sprintf("%s.v%d.%d", enc, gen, publish))
	if err := os.Rename(stage, final); err != nil {
		os.Remove(stage)
		return err
	}
	if d, err := os.Open(filepath.Join(s.root, "obj")); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	KillPoint("storage.sync.after")
	return nil
}

func (s *objstore) Open(path string, flags int, perm uint32) (File, error) {
	var buf []byte
	v, ok, err := s.newestVisible(path, time.Now().UnixNano())
	if err != nil {
		return nil, err
	}
	switch {
	case ok && flags&OTrunc == 0:
		if buf, err = s.readVersion(v); err != nil {
			return nil, err
		}
	case !ok && flags&OCreate == 0:
		return nil, fmt.Errorf("%w: %s", errNotExist, path)
	}
	f := &objFile{store: s, key: path, buf: buf, append: flags&OAppend != 0}
	if flags&OCreate != 0 && !ok {
		// Creating a key publishes an (empty) first version only at Sync or
		// Close — an object store has no zero-byte create-on-open. Mark
		// dirty so a bare create+close still materializes the key.
		f.dirty = true
	}
	return f, nil
}

func (s *objstore) ReadFile(path string) ([]byte, error) {
	v, ok, err := s.newestVisible(path, time.Now().UnixNano())
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", errNotExist, path)
	}
	return s.readVersion(v)
}

func (s *objstore) Stat(path string) (int64, error) {
	v, ok, err := s.newestVisible(path, time.Now().UnixNano())
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("%w: %s", errNotExist, path)
	}
	fi, err := os.Stat(filepath.Join(s.root, "obj", v.file))
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func (s *objstore) Remove(path string) error {
	vs, err := s.versions(path)
	if err != nil {
		return err
	}
	if len(vs) == 0 {
		return fmt.Errorf("%w: %s", errNotExist, path)
	}
	for _, v := range vs {
		if err := os.Remove(filepath.Join(s.root, "obj", v.file)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// MkdirAll is a no-op: the namespace is flat, directories are prefixes.
func (s *objstore) MkdirAll(path string) error { return nil }

// List returns the visible entries directly under dir: keys with prefix
// dir+"/", truncated at the next separator and deduplicated.
func (s *objstore) List(dir string) ([]string, error) {
	ents, err := os.ReadDir(filepath.Join(s.root, "obj"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	now := time.Now().UnixNano()
	prefix := dir
	if !strings.HasSuffix(prefix, "/") {
		prefix += "/"
	}
	// Visibility per key: a key is listed iff its newest visible version
	// exists. Collect per-key max visible publish as we scan.
	visible := map[string]bool{}
	for _, e := range ents {
		name := e.Name()
		i := strings.LastIndex(name, ".v")
		if i < 0 {
			continue
		}
		rest := name[i+2:]
		_, pubStr, ok := strings.Cut(rest, ".")
		if !ok {
			continue
		}
		pub, err := strconv.ParseInt(pubStr, 10, 64)
		if err != nil || pub > now {
			continue
		}
		key := decodeKey(name[:i])
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		seg := key[len(prefix):]
		if j := strings.IndexByte(seg, '/'); j >= 0 {
			seg = seg[:j]
		}
		visible[seg] = true
	}
	return sortedNames(visible), nil
}

// objFile is one open handle: a private buffer snapshot of the newest
// visible version plus local edits. Sync/Close publish the buffer as a new
// immutable version.
type objFile struct {
	store  *objstore
	key    string
	buf    []byte
	pos    int64
	append bool
	dirty  bool
	closed bool
}

func (f *objFile) Name() string { return f.key }

func (f *objFile) Read(p []byte) (int, error) {
	if f.pos >= int64(len(f.buf)) {
		return 0, io.EOF
	}
	n := copy(p, f.buf[f.pos:])
	f.pos += int64(n)
	return n, nil
}

func (f *objFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(f.buf)) {
		return 0, io.EOF
	}
	n := copy(p, f.buf[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *objFile) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
	case io.SeekCurrent:
		off += f.pos
	case io.SeekEnd:
		off += int64(len(f.buf))
	default:
		return 0, fmt.Errorf("storage: bad whence %d", whence)
	}
	if off < 0 {
		return 0, fmt.Errorf("storage: negative seek %d", off)
	}
	f.pos = off
	return off, nil
}

func (f *objFile) extend(end int64) {
	if end > int64(len(f.buf)) {
		f.buf = append(f.buf, make([]byte, end-int64(len(f.buf)))...)
	}
}

func (f *objFile) Write(p []byte) (int, error) {
	KillPoint("storage.write.before")
	if f.append {
		f.pos = int64(len(f.buf))
	}
	f.extend(f.pos + int64(len(p)))
	copy(f.buf[f.pos:], p)
	f.pos += int64(len(p))
	f.dirty = true
	KillPoint("storage.write.after")
	return len(p), nil
}

func (f *objFile) WriteAt(p []byte, off int64) (int, error) {
	KillPoint("storage.write.before")
	f.extend(off + int64(len(p)))
	copy(f.buf[off:], p)
	f.dirty = true
	KillPoint("storage.write.after")
	return len(p), nil
}

func (f *objFile) Truncate(size int64) error {
	if size < 0 {
		return fmt.Errorf("storage: negative truncate %d", size)
	}
	if size <= int64(len(f.buf)) {
		f.buf = f.buf[:size]
	} else {
		f.extend(size)
	}
	f.dirty = true
	return nil
}

// Sync is the upload: the buffer becomes a durable new version, visible
// after the store's delay. Sync of a clean handle is a no-op (nothing new
// to publish).
func (f *objFile) Sync() error {
	if !f.dirty {
		return nil
	}
	if err := f.store.publish(f.key, f.buf); err != nil {
		return err
	}
	f.dirty = false
	return nil
}

// Close completes the upload if writes are pending — the multipart-commit
// idiom: an object only exists once its upload completes.
func (f *objFile) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	return f.Sync()
}
