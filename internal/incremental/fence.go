package incremental

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// This file is the fencing layer: a monotonic epoch (a term number) that
// names which primary's history a node is writing. Every promotion bumps
// the epoch and journals it durably BEFORE the read-only gate lifts, so
// the new primary's segment carries proof of its term; followers refuse
// chunks from a source whose epoch is below their own, so a deposed
// primary's divergent tail can never propagate through replication; and
// routed writers (cfdrouter) carry the epoch they believe current, so a
// write addressed to a deposed primary is refused instead of forking
// history.
//
// The guarantee is layered. Replication-side fencing is absolute: the
// epoch travels inside the WAL (an opEpoch record) and in every ship
// chunk, so a follower at epoch e simply never applies bytes from an
// e'<e history. Node-side fencing (Fence, ApplyAt) is cooperative: a
// partitioned primary that nobody reaches cannot learn it was deposed,
// and will keep accepting direct Apply calls until the first fenced
// exchange tells it otherwise — at which point Fenced() latches and
// every further mutation is refused. A router that stamps each write
// with its epoch (ApplyAt) closes that window for routed traffic: the
// deposed primary learns the higher epoch from the very write that
// would have forked it.

// ErrFenced reports a mutation refused because a higher-epoch primary
// exists: this node was deposed by a promotion it has since learned of.
var ErrFenced = errors.New("incremental: monitor is fenced (a higher-epoch primary exists)")

// Epoch returns the fencing epoch this monitor's history is written
// under. 0 is the implicit epoch of a never-promoted primary.
func (m *Monitor) Epoch() uint64 { return m.epoch.Load() }

// Fenced reports whether the monitor has learned of a higher epoch than
// its own — i.e. that it was deposed. A fenced monitor refuses every
// mutation with ErrFenced; it un-fences only by being promoted to an
// epoch at or above the one it was fenced at.
func (m *Monitor) Fenced() bool { return m.fencedAt.Load() > m.epoch.Load() }

// Fence tells the monitor that a primary at the given epoch exists. If
// that epoch exceeds the monitor's own, further mutations are refused
// with ErrFenced. Fencing is monotonic (the highest epoch ever seen
// wins) and idempotent; fencing at or below the monitor's own epoch is
// a no-op.
func (m *Monitor) Fence(epoch uint64) {
	for {
		cur := m.fencedAt.Load()
		if epoch <= cur || m.fencedAt.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// ApplyAt applies a ChangeSet stamped with the epoch the caller believes
// current — the routed-write form of Apply. A caller whose epoch is
// behind the monitor's is stale (it missed a promotion) and is refused.
// A caller whose epoch is AHEAD proves this monitor was deposed: the
// monitor fences itself off the stamp and refuses — the write that
// would have forked history is what delivers the fencing. Epochs equal,
// the write proceeds as a plain Apply. (A promotion racing the equality
// check can still let one same-epoch write through; that write lands in
// the pre-promotion prefix both histories share, so it is ordered, not
// forked.)
func (m *Monitor) ApplyAt(cs *ChangeSet, epoch uint64) (*Delta, error) {
	cur := m.epoch.Load()
	if epoch != cur {
		if epoch > cur {
			m.Fence(epoch)
		}
		m.met.fencedRejected.Inc()
		m.met.rejected.Inc()
		return nil, fmt.Errorf("incremental: write stamped epoch %d, monitor at epoch %d: %w", epoch, cur, ErrFenced)
	}
	return m.Apply(cs)
}

// encodeEpoch encodes an epoch-marker WAL record: the promotion's term
// number, journaled before the promoted monitor accepts its first write
// so the segment itself names the history it extends.
func encodeEpoch(epoch uint64) []byte {
	buf := make([]byte, 0, 1+binary.MaxVarintLen64)
	buf = append(buf, opEpoch)
	return binary.AppendUvarint(buf, epoch)
}
