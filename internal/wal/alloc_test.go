//go:build !race

// Allocation budgets are deterministic where wall-clock gates are not,
// but the race detector changes how the runtime allocates, so they run
// only in plain builds.

package wal

import (
	"bytes"
	"path/filepath"
	"testing"
)

// TestAppendAllocs pins Log.Append at zero allocations: the frame buffer
// is reused from one record to the next, so a steady stream of
// 1 500-byte payloads (about one serialized 32-op ChangeSet) allocates
// nothing. A change that moves the count edits the budget and says why.
func TestAppendAllocs(t *testing.T) {
	l, err := Create(filepath.Join(t.TempDir(), "seg"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte("x"), 1500)
	const budget = 0
	got := testing.AllocsPerRun(100, func() {
		if err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Errorf("Append of %d bytes: %.0f allocs, budget %d", len(payload), got, budget)
	}
}
