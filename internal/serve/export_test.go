package serve

// MemDisk is a data directory in memory under the WAL: Open starts a
// wal.Store on it, as a process opens its data directory (two Stores open
// at once contend for session locks as two processes do), and Sum digests
// every path and byte it holds.
type MemDisk struct {
	Open func() Store
	Sum  func() string
}

// NewMemDisk returns an empty MemDisk whose Stores compact per
// wal.Options.CompactEvery. It is set by an init in package serve_test:
// package wal imports serve, so serve cannot import it.
var NewMemDisk func(compactEvery int) MemDisk

// memStore is a Store on a fresh MemDisk, compacting at the WAL's default.
func memStore() Store { return NewMemDisk(0).Open() }
