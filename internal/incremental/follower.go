package incremental

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

// A Follower is a hot standby: a read-only Monitor that tails a
// primary's WAL stream — snapshot first when its own directory is empty,
// then segment chunks at record granularity — into its own WAL
// directory, applying each record through the same replay path recovery
// uses. At every instant the follower's state is some record-boundary
// prefix of the primary's journaled stream, its local directory is a
// valid single-node recovery image of exactly that prefix (segment
// numbers mirror the primary's, torn tails truncate on restart like any
// crash), and Promote turns it into a writable primary at the boundary
// it has applied. Queries (Violations, Stat, Snapshot) serve
// throughout; only mutations are gated.

// ErrReadOnly reports a mutation against a monitor that is following a
// primary. Promote the follower (Follower.Promote) to accept writes.
var ErrReadOnly = errors.New("incremental: monitor is read-only (following a primary)")

// ErrPrimaryResponded marks a ChunkSource error in which the primary
// was reached and answered — an HTTP error status, a refused request.
// Such errors are proof of liveness: a ChunkSource should wrap them
// (errors.Is-visible) so the follower retries without ever arming
// auto-promotion on them — promoting against a primary that is
// demonstrably alive would fork history without a partition.
var ErrPrimaryResponded = errors.New("incremental: primary responded with an error")

// ChunkSource abstracts the primary's shipping surface: the cfdserve
// HTTP endpoints in production, a direct Monitor in tests and benches.
type ChunkSource interface {
	// Snapshot streams the primary's newest snapshot image and reports
	// the generation it bases.
	Snapshot(ctx context.Context) (seq uint64, rc io.ReadCloser, err error)
	// Chunk fetches record-aligned bytes from (seq, offset); maxBytes
	// bounds the chunk. A cursor below the primary's retention window
	// returns an error wrapping ErrSegmentGone.
	Chunk(ctx context.Context, seq uint64, offset int64, maxBytes int) (ShipChunk, error)
}

// monitorSource adapts a local durable Monitor into a ChunkSource — the
// in-process form of the wire protocol, used by tests and benchmarks.
type monitorSource struct{ m *Monitor }

// NewMonitorSource exposes a durable monitor's WAL stream as a
// ChunkSource, the same surface cfdserve serves over HTTP.
func NewMonitorSource(m *Monitor) ChunkSource { return monitorSource{m} }

func (s monitorSource) Snapshot(ctx context.Context) (uint64, io.ReadCloser, error) {
	seq, rc, _, err := s.m.ShipSnapshot()
	return seq, rc, err
}

func (s monitorSource) Chunk(ctx context.Context, seq uint64, offset int64, maxBytes int) (ShipChunk, error) {
	return s.m.WALChunk(seq, offset, maxBytes)
}

// FollowOptions configures a Follower beyond the monitor Options it
// shares with a primary.
type FollowOptions struct {
	// Source is the primary's shipping surface (required).
	Source ChunkSource

	// PollInterval is the idle wait between tail polls once caught up;
	// 0 means 200ms.
	PollInterval time.Duration

	// MaxChunk bounds one chunk request in bytes; 0 means 1MiB.
	MaxChunk int

	// PromoteAfter, when positive, auto-promotes the follower once the
	// primary has been unreachable for this long — Run then returns nil
	// with the monitor writable. 0 means promotion is manual.
	PromoteAfter time.Duration

	// Resync discards the follower's local WAL state and re-seeds from
	// the primary's current snapshot. Set it when a previous Run ended
	// with ErrSegmentGone: the local cursor fell below the primary's
	// retention window, so the tail can no longer be resumed.
	Resync bool
}

// ReplicaStatus describes a follower's replication position.
type ReplicaStatus struct {
	// Following is true while the read-only gate is up; Promoted flips
	// when the monitor became writable.
	Following bool
	Promoted  bool
	// Seq and Offset are the applied cursor: every record of segment
	// Seq below Offset (and every earlier segment) is in the state.
	Seq    uint64
	Offset int64
	// AppliedRecords counts records applied since this follower started
	// (local recovery not included).
	AppliedRecords int64
	// PrimarySeq and PrimaryOffset are the primary's position as of the
	// last successful exchange; LagBytes is the byte distance when both
	// sit in the same segment (-1 when the follower is segments behind,
	// see LagSegments).
	PrimarySeq    uint64
	PrimaryOffset int64
	LagBytes      int64
	LagSegments   uint64
	// LastSync is the time of the last successful exchange with the
	// primary; LastError the most recent fetch/apply failure, cleared on
	// the next success.
	LastSync  time.Time
	LastError string
}

// Follower tails a primary's WAL stream into a local read-only Monitor.
// Methods are safe for concurrent use; Run is the long-lived tail loop,
// Sync one bounded catch-up pass.
type Follower struct {
	m    *Monitor
	src  ChunkSource
	poll time.Duration
	max  int
	auto time.Duration

	stopOnce sync.Once
	stopc    chan struct{}

	// syncMu serializes whole catch-up passes: the cursor read, chunk
	// fetch, apply and cursor advance of one pass must not interleave
	// with another's, or the same chunk could be fetched and applied
	// twice (Run's tail loop and a caller's explicit Sync are allowed to
	// coexist — this is what makes that safe).
	syncMu sync.Mutex

	// met holds the replication metric handles.
	met *followerMetrics

	mu         sync.Mutex
	seq        uint64
	off        int64
	applied    int64
	primarySeq uint64
	primaryOff int64
	lastSync   time.Time
	lastErr    error
	promoted   bool
	closed     bool
	// srcEpoch is the highest fencing epoch any chunk from the source has
	// carried; Promote bumps past max(srcEpoch, local epoch) so the new
	// term exceeds every history this follower has heard of.
	srcEpoch uint64
}

// NewFollower boots a follower: local WAL state (opts.Durable, required)
// is recovered and resumed when present — the fast path a restarted
// standby takes, seeding from its own snapshot + log tail instead of
// re-shipping everything — otherwise the primary's current snapshot is
// fetched, written as the local base generation, and recovered from
// disk. Either way the monitor comes up read-only with its cursor at the
// exact record boundary the local directory holds; Run (or Sync) then
// tails the primary from there.
func NewFollower(ctx context.Context, sigma []*core.CFD, opts Options, fo FollowOptions) (*Follower, error) {
	if opts.Durable == "" {
		return nil, errors.New("incremental: follower requires Options.Durable (its own WAL directory)")
	}
	if fo.Source == nil {
		return nil, errors.New("incremental: follower requires FollowOptions.Source")
	}
	if fo.Resync {
		if err := wipeWALDir(opts.Durable); err != nil {
			return nil, fmt.Errorf("incremental: resync wipe: %w", err)
		}
	}
	m, err := Open(sigma, opts)
	if errors.Is(err, ErrNoState) {
		if err := fetchSnapshot(ctx, fo.Source, opts.Durable); err != nil {
			return nil, err
		}
		m, err = Open(sigma, opts)
	}
	if err != nil {
		return nil, err
	}
	m.readOnly.Store(true)
	seq, off, err := m.walCursor()
	if err != nil {
		m.Close()
		return nil, err
	}
	f := &Follower{
		m:     m,
		src:   fo.Source,
		poll:  fo.PollInterval,
		max:   fo.MaxChunk,
		auto:  fo.PromoteAfter,
		stopc: make(chan struct{}),
		seq:   seq,
		off:   off,
	}
	f.met = newFollowerMetrics(m.met.reg)
	if f.poll <= 0 {
		f.poll = 200 * time.Millisecond
	}
	if f.max <= 0 {
		f.max = 1 << 20
	}
	return f, nil
}

// wipeWALDir removes the snapshots and segments of a follower's local
// directory so a resync re-seeds from the primary. Derived state only:
// everything here is a prefix of what the primary re-ships.
func wipeWALDir(dir string) error {
	snaps, logs, err := wal.Generations(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, s := range snaps {
		if err := os.Remove(wal.SnapshotPath(dir, s)); err != nil {
			return err
		}
	}
	for _, l := range logs {
		if err := os.Remove(wal.LogPath(dir, l)); err != nil {
			return err
		}
	}
	return nil
}

// fetchSnapshot streams the primary's snapshot into dir as the local
// base generation, durably (temp file, fsync, rename — wal.WriteSnapshot).
func fetchSnapshot(ctx context.Context, src ChunkSource, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	seq, rc, err := src.Snapshot(ctx)
	if err != nil {
		return fmt.Errorf("incremental: fetching primary snapshot: %w", err)
	}
	defer rc.Close()
	if err := wal.WriteSnapshot(dir, seq, func(w io.Writer) error {
		_, err := io.Copy(w, rc)
		return err
	}); err != nil {
		return fmt.Errorf("incremental: writing primary snapshot: %w", err)
	}
	return nil
}

// Monitor returns the follower's monitor: fully queryable, mutation-
// gated until promotion.
func (f *Follower) Monitor() *Monitor { return f.m }

// fetchFailure marks an error from the ChunkSource — the primary being
// unreachable — as opposed to a local apply failure. Only fetch
// failures may arm auto-promotion: promoting on a local failure (full
// disk, poisoned journal) would raise a writable primary on broken
// storage while the real primary is still alive.
type fetchFailure struct{ err error }

func (e *fetchFailure) Error() string { return e.err.Error() }
func (e *fetchFailure) Unwrap() error { return e.err }

// Sync runs one catch-up pass: chunks are fetched and applied until the
// cursor reaches the primary's live tail (or ctx/Promote stops it). It
// returns the number of records applied. An error wrapping
// ErrSegmentGone means the local cursor fell below the primary's
// retention window — rebuild with FollowOptions.Resync.
func (f *Follower) Sync(ctx context.Context) (int, error) {
	f.syncMu.Lock()
	defer f.syncMu.Unlock()
	applied := 0
	for {
		select {
		case <-ctx.Done():
			return applied, ctx.Err()
		case <-f.stopc:
			return applied, nil
		default:
		}
		f.mu.Lock()
		seq, off := f.seq, f.off
		f.mu.Unlock()
		ch, err := f.src.Chunk(ctx, seq, off, f.max)
		if err != nil {
			f.met.fetchErrors.Inc()
			err = &fetchFailure{err}
			f.note(err)
			return applied, err
		}
		f.met.chunks.Inc()
		// Fencing: a source whose epoch is below ours is a deposed
		// history — this follower already serves (or replicated from) a
		// higher term, and applying the lower-term tail would fork its
		// state. Permanent for this stream: not a fetchFailure, so Run
		// returns instead of retrying or arming auto-promotion.
		if e := f.m.epoch.Load(); ch.Epoch < e {
			err := fmt.Errorf("incremental: source serves epoch %d, follower at epoch %d: %w", ch.Epoch, e, ErrFenced)
			f.note(err)
			return applied, err
		}
		f.mu.Lock()
		if ch.Epoch > f.srcEpoch {
			f.srcEpoch = ch.Epoch
		}
		f.mu.Unlock()
		if len(ch.Data) > 0 {
			applyStart := time.Now()
			n, consumed, err := f.m.replicate(ch.Data)
			f.met.applySeconds.ObserveSince(applyStart)
			f.met.records.Add(uint64(n))
			f.met.bytes.Add(uint64(consumed))
			if n > 0 {
				f.advance(off+consumed, int64(n), ch)
				applied += n
			}
			if errors.Is(err, errNotFollowing) {
				// Promotion won the race against this chunk: not a
				// failure — the pass simply ends, and the dropped
				// records belong to a stream we no longer follow.
				return applied, nil
			}
			if err != nil {
				f.note(err)
				return applied, err
			}
			continue
		}
		if ch.Closed {
			// Segment exhausted: mirror the primary's roll, locally.
			if err := f.m.rollTo(ch.NextSeq); err != nil {
				if errors.Is(err, errNotFollowing) {
					return applied, nil
				}
				f.note(err)
				return applied, err
			}
			f.mu.Lock()
			f.seq, f.off = ch.NextSeq, 0
			f.mu.Unlock()
			continue
		}
		// Caught up with the live tail.
		f.advance(off, 0, ch)
		return applied, nil
	}
}

// advance records a successful exchange: cursor, counters, primary
// position, sync time, and the replication-lag gauges.
func (f *Follower) advance(off, applied int64, ch ShipChunk) {
	f.mu.Lock()
	f.off = off
	f.applied += applied
	f.primarySeq, f.primaryOff = ch.EndSeq, ch.EndOffset
	f.lastSync = time.Now()
	f.lastErr = nil
	lagBytes, lagSegs := f.lagLocked()
	f.met.lagBytes.Set(lagBytes)
	f.met.lagSegments.Set(int64(lagSegs))
	f.mu.Unlock()
}

// lagLocked is the distance to the primary's last reported tail: whole
// segments behind, and bytes behind — defined only while follower and
// primary share a segment, -1 otherwise. The caller holds f.mu.
func (f *Follower) lagLocked() (bytes int64, segs uint64) {
	bytes = -1
	if f.primarySeq >= f.seq {
		segs = f.primarySeq - f.seq
	}
	if f.primarySeq == f.seq {
		bytes = max(f.primaryOff-f.off, 0)
	}
	return bytes, segs
}

func (f *Follower) note(err error) {
	f.mu.Lock()
	f.lastErr = err
	f.mu.Unlock()
}

// Run tails the primary until ctx is cancelled, Close/Promote is called,
// or the stream is lost. Fetch failures — the primary unreachable —
// retry at the poll interval and, with PromoteAfter set, promote the
// follower once the primary has been continuously unreachable for that
// long (any replicated progress restarts the clock: a flapping link
// that still ships records is a live primary, not a dead one). An error
// wrapping ErrSegmentGone returns (rebuild with Resync); a local apply
// failure (full disk, poisoned journal) also returns — promoting onto
// broken storage while the primary may be alive would fork history.
func (f *Follower) Run(ctx context.Context) error {
	var downSince time.Time
	for {
		applied, err := f.Sync(ctx)
		var fetch *fetchFailure
		switch {
		case err == nil:
			downSince = time.Time{}
		case ctx.Err() != nil:
			// Our context, not a per-request deadline inside the source
			// (which must read as a fetch failure and retry).
			return nil
		case errors.Is(err, ErrSegmentGone):
			return err
		case errors.Is(err, ErrFenced):
			// The source is a deposed primary; tailing it further could
			// only replicate a forked history. The operator re-points the
			// follower at the current primary (Resync if needed).
			return err
		case errors.As(err, &fetch):
			if errors.Is(err, ErrPrimaryResponded) {
				// The primary answered: reachable and alive, whatever
				// it refused. Retry, but never arm failover on it.
				downSince = time.Time{}
				break
			}
			if applied > 0 || downSince.IsZero() {
				downSince = time.Now()
			}
			if f.auto > 0 && time.Since(downSince) >= f.auto {
				return f.Promote()
			}
		default:
			return err
		}
		if f.isStopped() {
			return nil
		}
		select {
		case <-ctx.Done():
			return nil
		case <-f.stopc:
			return nil
		case <-time.After(f.poll):
		}
	}
}

func (f *Follower) isStopped() bool {
	select {
	case <-f.stopc:
		return true
	default:
		return false
	}
}

// Promote flips the follower into a writable primary at the record
// boundary it has applied: the tail loop is stopped, any in-flight chunk
// finishes under the writer lock, and the read-only gate lifts — from
// then on the monitor journals its own mutations into the same local
// directory, which already holds exactly the applied prefix. The new
// primary takes a fresh fencing epoch — one past the highest term it has
// heard of, from the source's chunks or its own recovered state — and
// journals it durably before the gate lifts, so the old primary's
// further appends are refusable everywhere the epoch travels. Safe to
// call more than once; a closed follower (its journal is gone — e.g. a
// retention-window resync is rebuilding it) refuses rather than
// acknowledge a promotion that could not serve a single write, and a
// promotion whose epoch record cannot be journaled (full disk, poisoned
// journal) errors without flipping the gate.
func (f *Follower) Promote() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errors.New("incremental: follower is closed (resync in progress?)")
	}
	if f.promoted {
		return nil
	}
	f.stopOnce.Do(func() { close(f.stopc) })
	target := f.srcEpoch
	if e := f.m.epoch.Load(); e > target {
		target = e
	}
	// f.mu is held across the journaled bump: Sync's apply path takes
	// the writer lock without f.mu (and releases it before advance takes
	// f.mu), so the order f.mu → writer lock is acyclic — and holding it
	// means a failed bump leaves the follower un-promoted, never
	// half-promoted.
	if err := f.m.promoteTo(target + 1); err != nil {
		return err
	}
	f.promoted = true
	return nil
}

// Close stops the tail loop and closes the monitor's journal. A closed
// follower cannot be promoted; a promoted follower's monitor is owned by
// the caller and Close only stops the (already stopped) loop.
func (f *Follower) Close() error {
	f.stopOnce.Do(func() { close(f.stopc) })
	f.mu.Lock()
	promoted := f.promoted
	f.closed = true
	f.mu.Unlock()
	if promoted {
		return nil
	}
	return f.m.Close()
}

// Status reports the replication position.
func (f *Follower) Status() ReplicaStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := ReplicaStatus{
		Following:      !f.promoted,
		Promoted:       f.promoted,
		Seq:            f.seq,
		Offset:         f.off,
		AppliedRecords: f.applied,
		PrimarySeq:     f.primarySeq,
		PrimaryOffset:  f.primaryOff,
		LastSync:       f.lastSync,
	}
	st.LagBytes, st.LagSegments = f.lagLocked()
	if f.lastErr != nil {
		st.LastError = f.lastErr.Error()
	}
	return st
}
