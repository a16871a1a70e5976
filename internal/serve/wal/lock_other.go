//go:build !unix

package wal

import "os"

// flock on platforms without it provides no cross-process exclusion:
// single-writer discipline falls back to the durable fence protocol alone.
// The shared-store cluster deployment is documented unix-only for exactly
// this reason.
func flock(*os.File) error { return nil }
