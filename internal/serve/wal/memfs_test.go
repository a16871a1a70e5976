//go:build unix

package wal

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestMemFSMatchesDisk runs each operation of the filesystem seam on the
// disk (osFS over a temporary directory) and on a MemFS, and requires the
// same observable result from both: errors by kind, directory listings,
// file contents and sizes, and the lock's refusals.
func TestMemFSMatchesDisk(t *testing.T) {
	kind := func(err error) string {
		switch {
		case err == nil:
			return "ok"
		case errors.Is(err, fs.ErrExist):
			return "exist"
		case errors.Is(err, fs.ErrNotExist):
			return "notexist"
		case errors.Is(err, errLockHeld):
			return "held"
		}
		return "error"
	}
	cases := []struct {
		name string
		run  func(t *testing.T, f fsys, at func(string) string, out func(...any))
		want string
	}{
		{"mkdir", func(t *testing.T, f fsys, at func(string) string, out func(...any)) {
			out(kind(f.mkdir(at("a"))), kind(f.mkdir(at("a"))), kind(f.mkdir(at("x/y"))))
			out(kind(f.mkdirAll(at("x/y"))), kind(f.mkdirAll(at("x/y"))), kind(f.stat(at("x/y"))), kind(f.stat(at("x/z"))))
			write(t, f, at("f"), "", false)
			out(kind(f.mkdir(at("f"))), kind(f.mkdirAll(at("f/g"))))
		}, "ok exist notexist ok ok ok notexist exist error"},
		{"missing", func(t *testing.T, f fsys, at func(string) string, out func(...any)) {
			_, err := f.readFile(at("no"))
			out(kind(err))
			_, err = f.readDir(at("no"))
			out(kind(err))
			_, _, err = f.openFile(at("no/f"), false)
			out(kind(err), kind(f.rename(at("no"), at("b"))), kind(f.remove(at("no"))))
			out(kind(f.truncate(at("no"), 0)), kind(f.syncDir(at("no"))), kind(f.removeAll(at("no"))))
		}, "notexist notexist notexist notexist notexist notexist notexist ok"},
		{"rename a directory", func(t *testing.T, f fsys, at func(string) string, out func(...any)) {
			out(kind(f.mkdirAll(at("d/e"))))
			write(t, f, at("d/f"), "1", false)
			write(t, f, at("d/e/g"), "22", false)
			out(kind(f.rename(at("d"), at("q"))), kind(f.stat(at("d"))), kind(f.stat(at("d/e/g"))))
			out(list(t, f, at("q")), list(t, f, at("q/e")), read(t, f, at("q/e/g")))
		}, "ok ok notexist notexist e/,f g 22"},
		{"readdir sorts", func(t *testing.T, f fsys, at func(string) string, out func(...any)) {
			for _, name := range []string{"c", "a", "wal-2", "b", "wal-10"} {
				write(t, f, at(name), name, false)
			}
			out(kind(f.mkdir(at("m"))), list(t, f, at("")))
		}, "ok a,b,c,m/,wal-10,wal-2"},
		{"append after reopen", func(t *testing.T, f fsys, at func(string) string, out func(...any)) {
			out(write(t, f, at("f"), "ab", false), write(t, f, at("f"), "cd", false), read(t, f, at("f")))
			out(write(t, f, at("f"), "x", true), read(t, f, at("f")))
		}, "0 2 abcd 0 x"},
		{"truncate", func(t *testing.T, f fsys, at func(string) string, out func(...any)) {
			write(t, f, at("f"), "hello", false)
			out(kind(f.truncate(at("f"), 2)), fmt.Sprintf("%q", read(t, f, at("f"))))
			out(kind(f.truncate(at("f"), 4)), fmt.Sprintf("%q", read(t, f, at("f"))))
			out(write(t, f, at("f"), "!", false), fmt.Sprintf("%q", read(t, f, at("f"))))
		}, `ok "he" ok "he\x00\x00" 4 "he\x00\x00!"`},
		{"remove and removeAll", func(t *testing.T, f fsys, at func(string) string, out func(...any)) {
			out(kind(f.mkdirAll(at("d/e"))))
			write(t, f, at("d/e/g"), "1", false)
			out(kind(f.remove(at("d/e"))), kind(f.remove(at("d/e/g"))), kind(f.remove(at("d/e"))))
			write(t, f, at("d/h"), "1", false)
			out(kind(f.removeAll(at("d"))), kind(f.stat(at("d"))), kind(f.stat(at("d/h"))), list(t, f, at("")))
		}, "ok exist ok ok ok notexist notexist "},
		{"lock", func(t *testing.T, f fsys, at func(string) string, out func(...any)) {
			l1, err := f.lock(at("LOCK"))
			out(kind(err))
			_, err = f.lock(at("LOCK"))
			out(kind(err), kind(l1.Close()))
			l2, err := f.lock(at("LOCK"))
			out(kind(err), kind(l2.Close()), list(t, f, at("")))
		}, "ok held ok ok ok LOCK"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, side := range []struct {
				name string
				f    fsys
				root string
			}{{"disk", osFS{}, t.TempDir()}, {"mem", NewMemFS(), "/data"}} {
				if err := side.f.mkdirAll(side.root); err != nil {
					t.Fatal(err)
				}
				var got []string
				at := func(p string) string { return filepath.Join(side.root, p) }
				tc.run(t, side.f, at, func(v ...any) {
					for _, x := range v {
						got = append(got, fmt.Sprint(x))
					}
				})
				if s := strings.Join(got, " "); s != tc.want {
					t.Errorf("%s: %s, want %s", side.name, s, tc.want)
				}
			}
		})
	}
}

// write writes s to name, appending or truncating first, and returns the
// size the open reported.
func write(t *testing.T, f fsys, name, s string, trunc bool) int64 {
	t.Helper()
	h, size, err := f.openFile(name, trunc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write([]byte(s)); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	return size
}

func read(t *testing.T, f fsys, name string) string {
	t.Helper()
	b, err := f.readFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// list is a directory's entries in order, directories marked with a slash.
func list(t *testing.T, f fsys, dir string) string {
	t.Helper()
	entries, err := f.readDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.dir {
			e.name += "/"
		}
		names = append(names, e.name)
	}
	return strings.Join(names, ",")
}
