package profiling

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// heldOpen reports whether this process has a descriptor open on path, so a
// leaked profile handle shows without the test holding a reference to it —
// and without counting descriptors the runtime opens and closes on its own.
func heldOpen(t *testing.T, path string) bool {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd to look for descriptors in:", err)
	}
	for _, e := range ents {
		// A descriptor that closed since ReadDir fails the Readlink: not ours.
		// One whose file was removed under it reads "path (deleted)".
		target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err == nil && strings.TrimSuffix(target, " (deleted)") == path {
			return true
		}
	}
	return false
}

func TestStartStop(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")

	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if !heldOpen(t, cpu) {
		t.Fatal("the running CPU profile's file is not among /proc/self/fd: the leak checks below would see nothing")
	}

	// The process has one CPU profiler: a second Start fails, and must leave
	// neither a handle nor an empty file behind.
	second := filepath.Join(dir, "second.prof")
	if _, err := Start(second, ""); err == nil {
		t.Fatal("a second CPU profile started while one was running")
	}
	if _, err := os.Stat(second); !os.IsNotExist(err) {
		t.Fatalf("the failed Start left its file behind (stat: %v)", err)
	}
	if heldOpen(t, second) {
		t.Fatal("the failed Start leaked its descriptor")
	}

	stop()
	stop() // idempotent: commands both defer it and call it before os.Exit
	for _, name := range []string{cpu, mem} {
		if st, err := os.Stat(name); err != nil || st.Size() == 0 {
			t.Fatalf("%s: empty or missing after stop (size %v, err %v)", filepath.Base(name), st, err)
		}
	}
	for _, name := range []string{cpu, mem} {
		if heldOpen(t, name) {
			t.Fatalf("stop left %s open", filepath.Base(name))
		}
	}

	// Stopped for real: the profiler is free again.
	stop2, err := Start(filepath.Join(dir, "again.prof"), "")
	if err != nil {
		t.Fatalf("Start after stop: %v", err)
	}
	stop2()
}
