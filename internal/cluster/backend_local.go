package cluster

import (
	"context"
	"fmt"

	"repro/internal/incremental"
)

// LocalBackend adapts an in-process node to the Backend interface: a
// primary is a *incremental.Monitor, a standby a *incremental.Follower
// (whose embedded monitor serves the reads until promotion). The
// cluster property tests drive whole clusters through this adapter
// with zero HTTP in the loop; cfdrouter swaps in an HTTP
// backend with identical semantics.
type LocalBackend struct {
	// M is the node's monitor when it is (or started as) a primary.
	M *incremental.Monitor
	// F is set when the node is a standby; its monitor is used for
	// reads and Promote turns it into a primary.
	F *incremental.Follower
}

func (b *LocalBackend) mon() *incremental.Monitor {
	if b.F != nil {
		return b.F.Monitor()
	}
	return b.M
}

// Mon returns the monitor currently serving this backend's reads — the
// follower's embedded monitor until promotion. Read fan-out callers use
// it to query violation views and stats in-process after PickRead.
func (b *LocalBackend) Mon() *incremental.Monitor { return b.mon() }

// ReadPosition reports the node's replication position for the read
// fan-out's staleness guard: a primary is its own tail (lag 0); a
// standby reports its follower's epoch and byte lag as of the last
// exchange with the primary (-1 while whole segments behind).
func (b *LocalBackend) ReadPosition(context.Context) (ReadPosition, error) {
	if b.F != nil {
		st := b.F.Status()
		return ReadPosition{Epoch: b.F.Monitor().Epoch(), LagBytes: st.LagBytes}, nil
	}
	return ReadPosition{Epoch: b.M.Epoch(), LagBytes: 0}, nil
}

// Apply applies the batch under the caller's epoch stamp (see
// Monitor.ApplyAt).
func (b *LocalBackend) Apply(_ context.Context, epoch uint64, cs *incremental.ChangeSet) (*incremental.Delta, error) {
	return b.mon().ApplyAt(cs, epoch)
}

// Epoch reports the node's current fencing epoch.
func (b *LocalBackend) Epoch(context.Context) (uint64, error) {
	return b.mon().Epoch(), nil
}

// NextKey reports the node's key-allocator watermark.
func (b *LocalBackend) NextKey(context.Context) (int64, error) {
	return b.mon().NextKey(), nil
}

// Promote promotes the standby (Follower.Promote: durably journals the
// epoch bump, then lifts the read-only gate) and returns the new epoch.
func (b *LocalBackend) Promote(context.Context) (uint64, error) {
	if b.F == nil {
		return 0, fmt.Errorf("cluster: local backend is not a standby")
	}
	if err := b.F.Promote(); err != nil {
		return 0, err
	}
	return b.F.Monitor().Epoch(), nil
}

// Fence marks the node fenced at the given epoch (Monitor.Fence).
func (b *LocalBackend) Fence(_ context.Context, epoch uint64) error {
	b.mon().Fence(epoch)
	return nil
}
