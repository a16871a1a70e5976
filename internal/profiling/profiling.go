// Package profiling provides the shared -cpuprofile/-memprofile plumbing
// of the command-line tools, so perf investigations never need code edits.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
)

// Start begins a CPU profile (when cpu is non-empty) and returns a stop
// function that terminates it and writes a heap profile (when mem is
// non-empty). The stop function is idempotent, so commands can both defer
// it and call it on error-exit paths — an os.Exit that skipped it would
// leave a truncated CPU profile behind.
func Start(cpu, mem string) (stop func(), err error) {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, fmt.Errorf("create cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			// Nothing will be written: leave neither a handle nor an empty file.
			f.Close()
			os.Remove(cpu)
			return nil, fmt.Errorf("start cpu profile: %w", err)
		}
		cpuFile = f
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				if err := cpuFile.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "cpuprofile:", err)
				}
			}
			if mem != "" {
				f, err := os.Create(mem)
				if err != nil {
					fmt.Fprintln(os.Stderr, "memprofile:", err)
					return
				}
				defer f.Close()
				runtime.GC() // settle the heap so the profile reflects live data
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintln(os.Stderr, "memprofile:", err)
				}
			}
		})
	}, nil
}
