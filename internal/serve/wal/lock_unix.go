//go:build unix

package wal

import (
	"os"
	"syscall"
)

// flock takes f's exclusive advisory lock without blocking; errLockHeld
// reports a live holder.
func flock(f *os.File) error {
	err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
	if err == syscall.EWOULDBLOCK {
		return errLockHeld
	}
	return err
}
