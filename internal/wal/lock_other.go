//go:build !unix

package wal

import "os"

// Non-unix builds run without an advisory directory lock: single-process
// use is still safe (the monitor's writer lock serializes appends), concurrent
// processes on one WAL directory are the operator's responsibility.
func flockExclusive(*os.File) error { return nil }

func funlock(*os.File) error { return nil }
