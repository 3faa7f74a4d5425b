package incremental

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/wal"
)

// This file is the primary side of WAL segment shipping: a durable
// monitor exposes its snapshot and its log segments — closed ones in
// full, the live tail up to its current length — as record-aligned
// chunks a Follower tails into its own WAL directory. The writer lock is
// held only to pin a consistent (generation, size) view; the file reads
// themselves run outside it, against immutable closed segments or the
// append-only prefix of the live one.

// ErrSegmentGone reports a shipping cursor below the primary's retention
// window: the segment was garbage-collected, and the follower must
// resync from the current snapshot instead of resuming the tail.
var ErrSegmentGone = errors.New("incremental: WAL segment garbage-collected; resync from snapshot")

// ShipChunk is one record-aligned slice of a primary's WAL stream.
type ShipChunk struct {
	// Seq and Offset locate Data: byte Offset of segment wal-Seq.
	Seq    uint64
	Offset int64
	// Data holds whole framed records (wal.ScanRecords parses them);
	// empty when the cursor is caught up with the segment.
	Data    []byte
	Records int
	// Closed reports that wal-Seq is no longer the live segment: once
	// its bytes are exhausted the cursor advances to NextSeq at offset 0
	// (and the follower rolls its own generation at that boundary).
	Closed  bool
	NextSeq uint64
	// EndSeq and EndOffset are the primary's current generation and its
	// segment length — the position a fully-caught-up follower would
	// hold, used for replication-lag accounting.
	EndSeq    uint64
	EndOffset int64
	// Epoch is the fencing epoch the source is serving at. A follower
	// refuses chunks whose epoch is below its own — a source that fell
	// behind a promotion is a deposed history (see fence.go).
	Epoch uint64
}

// shipView pins a consistent view of the journal for one chunk read:
// the live generation, its length, and whether the requested segment is
// closed. Every acknowledged record has reached the file, so the live
// tail up to that length is readable.
func (m *Monitor) shipView(seq uint64) (view ShipChunk, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.j
	if j.closed {
		return view, errClosed
	}
	size, err := j.log.Size()
	if err != nil {
		return view, err
	}
	cur := j.seq.Load()
	view.Seq = seq
	view.EndSeq, view.EndOffset = cur, size
	if seq > cur {
		return view, fmt.Errorf("incremental: ship cursor at generation %d, primary at %d", seq, cur)
	}
	if seq < cur {
		view.Closed, view.NextSeq = true, seq+1
		if seq < j.segmentFloor(cur) {
			return view, ErrSegmentGone
		}
	}
	return view, nil
}

// WALChunk reads up to maxBytes of framed records from segment seq
// starting at offset, for shipping to a follower. Whole records only:
// the chunk never splits a frame, so a cursor advanced by its length
// always lands on a record boundary. An empty Data with Closed set means
// the segment is exhausted — advance to NextSeq; empty without Closed
// means the follower is caught up with the live tail. ErrSegmentGone
// reports a cursor below the retention window.
func (m *Monitor) WALChunk(seq uint64, offset int64, maxBytes int) (ShipChunk, error) {
	if m.j == nil {
		return ShipChunk{}, errors.New("incremental: monitor is not durable")
	}
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	for attempt := 0; ; attempt++ {
		view, err := m.shipView(seq)
		if err != nil {
			return view, err
		}
		// Stamped after the view is pinned: promoteTo publishes the new
		// epoch under the writer lock before its first post-promotion
		// record can be appended, so a chunk carrying such a record always
		// carries an epoch at least that high.
		view.Epoch = m.epoch.Load()
		view.Offset = offset
		limit := view.EndOffset
		path := wal.LogPath(m.j.dir, seq)
		if view.Closed {
			fi, err := os.Stat(path)
			if os.IsNotExist(err) {
				// GC'd between the view and the read (or the retention
				// window moved); re-pin once, then report the reset.
				if attempt == 0 {
					continue
				}
				return view, ErrSegmentGone
			}
			if err != nil {
				return view, err
			}
			limit = fi.Size()
		}
		if offset == limit {
			return view, nil // caught up (or closed segment exhausted)
		}
		data, records, err := wal.ReadChunk(path, offset, maxBytes, limit)
		if os.IsNotExist(err) {
			if attempt == 0 {
				continue
			}
			return view, ErrSegmentGone
		}
		if err != nil {
			return view, err
		}
		view.Data, view.Records = data, records
		return view, nil
	}
}

// ShipSnapshot opens the primary's newest snapshot for streaming to a
// follower, returning its generation, a reader over the image, and the
// image size. A durable monitor that has never snapshotted (an empty,
// never-seeded directory) takes one first, so a follower can always
// bootstrap. The reader holds an open file and must be closed; rotation
// may unlink the file meanwhile, which leaves the stream intact.
func (m *Monitor) ShipSnapshot() (seq uint64, rc io.ReadCloser, size int64, err error) {
	if m.j == nil {
		return 0, nil, 0, errors.New("incremental: monitor is not durable")
	}
	for attempt := 0; ; attempt++ {
		j := m.j
		m.mu.Lock()
		if j.closed {
			m.mu.Unlock()
			return 0, nil, 0, errClosed
		}
		seq = j.seq.Load()
		f, err := os.Open(wal.SnapshotPath(j.dir, seq))
		m.mu.Unlock()
		if err == nil {
			fi, serr := f.Stat()
			if serr != nil {
				f.Close()
				return 0, nil, 0, serr
			}
			return seq, f, fi.Size(), nil
		}
		if !os.IsNotExist(err) || attempt > 0 {
			return 0, nil, 0, err
		}
		// Generation without a snapshot: only a fresh, never-seeded
		// directory (generation 0). Roll one so the follower has a base.
		if err := j.snapshot(m); err != nil {
			return 0, nil, 0, err
		}
	}
}

// walCursor reports the durable monitor's current (generation, byte
// length) — where a follower's cursor starts after local recovery.
func (m *Monitor) walCursor() (seq uint64, off int64, err error) {
	j := m.j
	m.mu.Lock()
	defer m.mu.Unlock()
	if j.closed {
		return 0, 0, errClosed
	}
	off, err = j.log.Size()
	return j.seq.Load(), off, err
}

// errNotFollowing reports a replication apply against a monitor whose
// read-only gate is already down: promotion won the race against an
// in-flight chunk, which is simply dropped.
var errNotFollowing = errors.New("incremental: monitor is not following (promoted)")

// replicate appends one shipped chunk to the local segment and applies
// it record by record — the follower's only mutation path. It runs under
// the writer lock, preserving log order == apply order against the
// local rolls; the read-only gate must be up (a promoted monitor refuses
// further chunks, so promotion is a clean cut at a record boundary).
// Each record is re-framed through the local Log, which recomputes an
// identical CRC — the local segment stays byte-identical to the
// primary's prefix, so the shipping cursor IS the local file size.
func (m *Monitor) replicate(chunk []byte) (records int, consumed int64, err error) {
	j := m.j
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.readOnly.Load() {
		return 0, 0, errNotFollowing
	}
	if err := j.usable(); err != nil {
		return 0, 0, err
	}
	consumed, records, err = wal.ScanRecords(chunk, func(p []byte) error {
		if err := j.log.Append(p); err != nil {
			j.appendErr = err
			return err
		}
		n, err := m.replayLocked(p)
		if err != nil {
			// The record landed in the local log but not in memory: the
			// two no longer agree — poison, like a live apply failure.
			j.appendErr = err
			return err
		}
		j.records.Add(int64(n))
		return nil
	})
	return records, consumed, err
}

// rollTo advances the follower's local generation to the primary's next
// segment number: the in-memory state — exactly the primary's state at
// the closed segment's end, since the same record prefix produced it —
// becomes snap-newSeq, and an empty wal-newSeq starts. After the roll
// the local directory is a self-sufficient recovery image at the new
// cursor, and a crash between any two steps recovers like a primary's
// interrupted rotation.
func (m *Monitor) rollTo(newSeq uint64) error {
	j := m.j
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.readOnly.Load() {
		// Promotion landed first: the monitor rolls on its own cadence
		// now, not the primary's.
		return errNotFollowing
	}
	if j.closed {
		return errClosed
	}
	if err := j.usable(); err != nil {
		return err
	}
	return j.rollLocked(m, newSeq)
}

// promoteTo lifts the read-only gate under the writer lock: any
// in-flight replicate chunk finished first, so the flip happens at the
// exact record boundary the follower has applied, and every mutation
// after it journals locally like a primary's. Before the gate lifts the
// new epoch is journaled (an opEpoch record) and synced — the promoted
// segment durably names its term before it can hold a single write, so
// recovery and every shipped chunk carry it. The epoch append is the
// one place a follower's directory legitimately diverges from the old
// primary's: it is the first record of the new history.
func (m *Monitor) promoteTo(epoch uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.j == nil {
		if epoch > m.epoch.Load() {
			m.epoch.Store(epoch)
		}
		m.readOnly.Store(false)
		return nil
	}
	j := m.j
	if err := j.usable(); err != nil {
		return err
	}
	if epoch > m.epoch.Load() {
		if err := j.log.Append(encodeEpoch(epoch)); err != nil {
			j.appendErr = err
			return err
		}
		if err := j.log.Sync(); err != nil {
			j.appendErr = err
			return err
		}
		m.epoch.Store(epoch)
	}
	m.readOnly.Store(false)
	return nil
}
