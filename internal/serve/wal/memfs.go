package wal

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// MemFS is a filesystem in memory for OpenMem: one mutex-guarded map from
// path to file or directory. A handle follows its file through a rename or
// a removal, as a descriptor follows its inode, and a file's lock admits one
// holder at a time, as flock does between processes — so Stores opened on
// one MemFS contend for sessions as processes sharing a directory do.
// Nothing survives the process.
type MemFS struct {
	mu    sync.Mutex
	nodes map[string]*memNode
}

type memNode struct {
	dir    bool
	data   []byte
	locked bool
}

// NewMemFS returns a MemFS holding only its root, "/".
func NewMemFS() *MemFS { return &MemFS{nodes: map[string]*memNode{"/": {dir: true}}} }

// OpenMem opens a Store on m as Open does on a directory.
func OpenMem(m *MemFS, opts Options) (*Store, error) { return open(m, "/", opts) }

// Sum is a SHA-256 over every path m holds and every byte of each file, in
// path order: equal sums are byte-identical trees.
func (m *MemFS) Sum() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	paths := make([]string, 0, len(m.nodes))
	for p := range m.nodes {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		fmt.Fprintf(h, "%s %t %d\n", p, m.nodes[p].dir, len(m.nodes[p].data))
		//easybolint:ok errdrop hash.Hash's Write never returns an error
		h.Write(m.nodes[p].data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// get returns the node at name if it is a directory (dir) or a file (!dir).
func (m *MemFS) get(op, name string, dir bool) (*memNode, error) {
	n := m.nodes[name]
	if n == nil {
		return nil, &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
	}
	if n.dir != dir {
		return nil, &fs.PathError{Op: op, Path: name, Err: fs.ErrInvalid}
	}
	return n, nil
}

// file returns the file at name, creating it if its directory exists.
func (m *MemFS) file(name string) (*memNode, error) {
	if m.nodes[name] != nil {
		return m.get("open", name, false)
	}
	if _, err := m.get("open", filepath.Dir(name), true); err != nil {
		return nil, err
	}
	n := &memNode{}
	m.nodes[name] = n
	return n, nil
}

// children lists a directory's entries sorted by name.
func (m *MemFS) children(dir string) []dirEntry {
	var out []dirEntry
	//easybolint:ok maporder sorted below
	for p, n := range m.nodes {
		if filepath.Dir(p) == dir && p != dir {
			out = append(out, dirEntry{filepath.Base(p), n.dir})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (m *MemFS) openFile(name string, trunc bool) (file, int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, err := m.file(name)
	if err != nil {
		return nil, 0, err
	}
	if trunc {
		n.data = nil
	}
	return &memHandle{m: m, n: n}, int64(len(n.data)), nil
}

func (m *MemFS) lock(name string) (io.Closer, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, err := m.file(name)
	if err == nil && n.locked {
		err = errLockHeld
	}
	if err != nil {
		return nil, err
	}
	n.locked = true
	return &memHandle{m: m, n: n, holds: true}, nil
}

func (m *MemFS) mkdir(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.nodes[name] != nil {
		return &fs.PathError{Op: "mkdir", Path: name, Err: fs.ErrExist}
	}
	if _, err := m.get("mkdir", filepath.Dir(name), true); err != nil {
		return err
	}
	m.nodes[name] = &memNode{dir: true}
	return nil
}

func (m *MemFS) mkdirAll(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mkdirAllLocked(name)
}

func (m *MemFS) mkdirAllLocked(name string) error {
	if parent := filepath.Dir(name); m.nodes[name] == nil && parent != name {
		if err := m.mkdirAllLocked(parent); err != nil {
			return err
		}
		m.nodes[name] = &memNode{dir: true}
	}
	_, err := m.get("mkdir", name, true)
	return err
}

func (m *MemFS) stat(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.nodes[name] == nil {
		return &fs.PathError{Op: "stat", Path: name, Err: fs.ErrNotExist}
	}
	return nil
}

// rename refuses a directory as the target, where the disk takes an empty
// one.
func (m *MemFS) rename(from, to string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.nodes[from]
	if n == nil {
		return &fs.PathError{Op: "rename", Path: from, Err: fs.ErrNotExist}
	}
	if _, err := m.get("rename", filepath.Dir(to), true); err != nil {
		return err
	}
	if t := m.nodes[to]; t != nil && (t.dir || n.dir) {
		return &fs.PathError{Op: "rename", Path: to, Err: fs.ErrExist}
	}
	if n.dir {
		//easybolint:ok maporder each path under from moves on its own; the order reaches nothing
		for p, c := range m.nodes {
			if rest, ok := strings.CutPrefix(p, from+"/"); ok {
				delete(m.nodes, p)
				m.nodes[to+"/"+rest] = c
			}
		}
	}
	delete(m.nodes, from)
	m.nodes[to] = n
	return nil
}

func (m *MemFS) remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.nodes[name] == nil {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	if len(m.children(name)) > 0 {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrExist} // as ENOTEMPTY reads
	}
	delete(m.nodes, name)
	return nil
}

func (m *MemFS) removeAll(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	//easybolint:ok maporder deletions commute
	for p := range m.nodes {
		if p == name || strings.HasPrefix(p, name+"/") {
			delete(m.nodes, p)
		}
	}
	return nil
}

func (m *MemFS) readDir(name string) ([]dirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.get("readdir", name, true); err != nil {
		return nil, err
	}
	return m.children(name), nil
}

func (m *MemFS) readFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, err := m.get("read", name, false)
	if err != nil {
		return nil, err
	}
	return bytes.Clone(n.data), nil
}

func (m *MemFS) truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, err := m.get("truncate", name, false)
	if err != nil {
		return err
	}
	if grow := size - int64(len(n.data)); grow > 0 {
		n.data = append(n.data, make([]byte, grow)...)
	} else {
		n.data = n.data[:size]
	}
	return nil
}

func (m *MemFS) syncDir(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, err := m.get("sync", name, true)
	return err
}

// memHandle is an open file, or with holds its lock.
type memHandle struct {
	m      *MemFS
	n      *memNode
	holds  bool
	closed bool
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if h.closed {
		return 0, fs.ErrClosed
	}
	h.n.data = append(h.n.data, p...)
	return len(p), nil
}

// Sync has nothing to flush; like the disk's, it fails on a closed handle.
func (h *memHandle) Sync() error {
	_, err := h.Write(nil)
	return err
}

func (h *memHandle) Close() error {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if h.closed {
		return fs.ErrClosed
	}
	h.closed = true
	if h.holds {
		h.n.locked = false
	}
	return nil
}
