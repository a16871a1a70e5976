package wal

import (
	"io"
	"os"
)

// fsys is the filesystem a Store runs on: the calls the log, its recovery
// and the session lock make, and no others. osFS is the disk; MemFS keeps
// the same tree in memory. Errors wrap fs.ErrExist and fs.ErrNotExist where
// the os package's would.
type fsys interface {
	// openFile opens name for writing, creating it if missing, and returns
	// its size: with trunc it is emptied first, else every write appends.
	openFile(name string, trunc bool) (file, int64, error)
	mkdir(name string) error
	mkdirAll(name string) error
	stat(name string) error
	// rename moves a file, or a directory with everything under it.
	rename(from, to string) error
	remove(name string) error
	removeAll(name string) error
	// readDir lists a directory's entries sorted by name.
	readDir(name string) ([]dirEntry, error)
	readFile(name string) ([]byte, error)
	truncate(name string, size int64) error
	syncDir(name string) error
	// lock takes the exclusive advisory lock on name, creating the file;
	// errLockHeld while another handle holds it. Closing the returned
	// handle releases it.
	lock(name string) (io.Closer, error)
}

// file is an open handle from fsys.openFile.
type file interface {
	io.Writer
	Sync() error
	Close() error
}

type dirEntry struct {
	name string
	dir  bool
}

// osFS is the disk.
type osFS struct{}

func (osFS) openFile(name string, trunc bool) (file, int64, error) {
	mode := os.O_APPEND
	if trunc {
		mode = os.O_TRUNC
	}
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|mode, 0o644)
	if err != nil || trunc {
		return f, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		//easybolint:ok errdrop nothing was written; the stat error is the one reported
		f.Close()
		return nil, 0, err
	}
	return f, fi.Size(), nil
}

func (osFS) mkdir(name string) error                { return os.Mkdir(name, 0o755) }
func (osFS) mkdirAll(name string) error             { return os.MkdirAll(name, 0o755) }
func (osFS) rename(from, to string) error           { return os.Rename(from, to) }
func (osFS) remove(name string) error               { return os.Remove(name) }
func (osFS) removeAll(name string) error            { return os.RemoveAll(name) }
func (osFS) readFile(name string) ([]byte, error)   { return os.ReadFile(name) }
func (osFS) truncate(name string, size int64) error { return os.Truncate(name, size) }

func (osFS) stat(name string) error {
	_, err := os.Stat(name)
	return err
}

func (osFS) readDir(name string) ([]dirEntry, error) {
	entries, err := os.ReadDir(name)
	out := make([]dirEntry, len(entries))
	for i, e := range entries {
		out[i] = dirEntry{e.Name(), e.IsDir()}
	}
	return out, err
}

func (osFS) syncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	//easybolint:ok errdrop read-only directory handle; Sync is the durability point
	defer d.Close()
	return d.Sync()
}

// lock is the cross-process single-writer guard for the WAL: fences make
// ownership transfers durable, but only the kernel can tell a live writer
// from a dead one. A process that dies — kill -9 included — releases the
// lock instantly, so failover adoption proceeds; a process that is merely
// slow (a failure-detector flap) still holds it, so a second writer can
// never interleave records into its segments.
func (osFS) lock(name string) (io.Closer, error) {
	f, err := os.OpenFile(name, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := flock(f); err != nil {
		//easybolint:ok errdrop the flock error is the one reported; nothing was written through this handle
		_ = f.Close()
		return nil, err
	}
	return f, nil
}
