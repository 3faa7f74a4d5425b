package incremental

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/relation"
	"repro/internal/wal"
)

// This file is the durable mode of the Monitor: every mutation appends a
// write-ahead record (internal/wal framing) before the in-memory apply, a
// background snapshotter rolls the generation when the log grows past
// Options.SnapshotEvery records, and startup recovers the latest snapshot
// plus the log tail instead of re-evaluating Σ over every tuple.
//
// The journal has no lock of its own: every field is written under the
// monitor's writer lock (Monitor.mu), which every state change holds, so
// WAL log order equals apply order and replaying the log rebuilds the
// exact pre-crash state; see the locking notes in monitor.go. The commit
// window appends one record per window (changeset.go); recovery replay
// and follower replication decode records back into ops and run them
// through the same validator and apply step, minus the append. Readers
// (Violations, Satisfied, Get, ..., JournalStats) never wait on the
// append or the fsync: they read the stores under the store lock, which
// the apply holds only around its op loop, or read atomics.

// errClosed reports a mutation against a closed durable monitor.
var errClosed = errors.New("incremental: monitor journal is closed")

// gcPause refcounts the process-global GC toggle used by recovery, so
// concurrent recoveries (a server hosting several WAL-backed monitors)
// compose: the collector is re-enabled with the original setting only
// when the last recovery finishes, never left off for the process's life.
var gcPause struct {
	mu    sync.Mutex
	depth int
	prev  int
}

// pauseGC disables GC until the returned release function is called.
func pauseGC() func() {
	gcPause.mu.Lock()
	if gcPause.depth == 0 {
		gcPause.prev = debug.SetGCPercent(-1)
	}
	gcPause.depth++
	gcPause.mu.Unlock()
	return func() {
		gcPause.mu.Lock()
		gcPause.depth--
		if gcPause.depth == 0 {
			debug.SetGCPercent(gcPause.prev)
		}
		gcPause.mu.Unlock()
	}
}

// WAL record op codes. opBatch frames a whole ChangeSet as one record:
// a wal.EncodeBatch vector of single-op payloads. opEpoch is the
// fencing marker a promotion journals before its first write (see
// fence.go); it carries no mutation, so replay and the snapshot cadence
// count it as zero ops. Replay stays backward-compatible — logs written
// before batches or fencing existed contain only codes 1–3 and replay
// unchanged.
const (
	opInsert = 1
	opDelete = 2
	opUpdate = 3
	opBatch  = 4
	opEpoch  = 5
)

// journal is the durable state attached to a Monitor; the monitor's
// writer lock guards all of it, and the atomic gauges are also read
// without it.
type journal struct {
	dir       string
	fsync     bool
	snapEvery int
	// retain is the number of closed segments kept behind the current
	// generation for WAL shipping (Options.RetainSegments); snapshots
	// below the current generation are collected regardless.
	retain int

	log  *wal.Log
	lock *wal.DirLock
	// seq is the current generation (snap-seq is the base of wal-seq).
	// seq, records and lastSnapErr are atomics so JournalStats reads them
	// without the writer lock; only the writer stores them.
	seq atomic.Uint64
	// appendErr poisons the journal after a failed append: the record may
	// or may not be on disk, so the in-memory state and the log can no
	// longer be trusted to agree. Further mutations are refused until a
	// successful snapshot (which starts a fresh segment from the
	// in-memory state, resolving the uncertainty) or a restart (which
	// resolves it the other way, by replaying whatever reached the disk).
	appendErr error
	records   atomic.Int64 // mutations journaled in the current segment
	// retryAt, after a failed snapshot, is the segment length at which
	// the background trigger may fire again — one full snapEvery later,
	// so a wedged directory (ENOSPC, permissions) costs one failed
	// full-state serialization per interval, not one per mutation.
	retryAt int

	snapping    atomic.Bool            // single-flight guard for background snapshots
	lastSnapErr atomic.Pointer[string] // message of the last snapshot's failure; nil after a success
	recovered   bool
	closed      bool
}

// attachJournal puts m into durable mode against opts.Durable. A directory
// with existing state wins over the seed: the snapshot + log tail are
// recovered and seed is ignored. A fresh directory seeds from seed (nil
// means start empty) and, when seeded, writes the initial snapshot so the
// CSV is never needed again.
func attachJournal(m *Monitor, opts Options, seed *relation.Relation) error {
	dir := opts.Durable
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	lock, err := wal.LockDir(dir)
	if err != nil {
		return err
	}
	attached := false
	defer func() {
		if !attached {
			lock.Unlock()
		}
	}()
	retain := opts.RetainSegments
	if retain < 0 {
		// A negative count would wrap in segmentFloor's uint64 math and
		// silently disable segment GC forever; treat it as "retain none".
		retain = 0
	}
	j := &journal{dir: dir, fsync: opts.Fsync, snapEvery: opts.SnapshotEvery, retain: retain, lock: lock}
	snaps, logs, err := wal.Generations(dir)
	if err != nil {
		return err
	}

	if len(snaps) == 0 && len(logs) == 0 {
		// Fresh directory. The journal is not attached yet, so the seed's
		// bulk build journals nothing; the snapshot below captures it.
		if seed != nil {
			if err := m.seed(seed); err != nil {
				return err
			}
			j.seq.Store(1)
			if err := wal.WriteSnapshot(dir, 1, m.writeSnapshot); err != nil {
				return err
			}
		}
		log, err := wal.Create(wal.LogPath(dir, j.seq.Load()), j.fsync)
		if err != nil {
			return err
		}
		log.SetStats(m.met.logStats)
		j.log = log
		m.j = j
		attached = true
		return nil
	}

	// Existing state: recover it, ignoring any seed. Recovery is one
	// bounded allocation burst that immediately becomes the node's
	// resident state (image, tuple arena, index maps); letting the
	// collector run mid-burst only re-scans what is about to be live
	// anyway, so GC is parked until the state is up — the same discipline
	// storage engines apply to their restore paths.
	defer pauseGC()()
	j.recovered = true
	if len(snaps) > 0 {
		j.seq.Store(snaps[len(snaps)-1])
		f, err := os.Open(wal.SnapshotPath(dir, j.seq.Load()))
		if err != nil {
			return err
		}
		var size int64
		if fi, err := f.Stat(); err == nil {
			size = fi.Size()
		}
		err = m.readSnapshot(f, size)
		f.Close()
		if err != nil {
			return err
		}
	} else if logs[len(logs)-1] != 0 {
		// A log segment without its snapshot is only recoverable at
		// generation 0, whose base is the empty monitor.
		return fmt.Errorf("incremental: wal dir %s: segment %d has no snapshot", dir, logs[len(logs)-1])
	}
	seq := j.seq.Load()
	logPath := wal.LogPath(dir, seq)
	if _, err := os.Stat(logPath); err == nil {
		// j.records counts MUTATIONS (a batch record is its op count, as
		// afterAppend counts it), so the snapshot cadence survives a
		// crash-recovery cycle: replay accumulates ops, not records.
		ops := 0
		m.mu.Lock()
		_, validLen, torn, err := wal.Replay(logPath, func(p []byte) error {
			n, err := m.replayLocked(p)
			ops += n
			return err
		})
		m.mu.Unlock()
		if err != nil {
			return err
		}
		if torn {
			// The tail of a crashed append is garbage; cut it so new
			// records start at the last intact boundary.
			if err := os.Truncate(logPath, validLen); err != nil {
				return err
			}
		}
		j.records.Store(int64(ops))
	} else if !os.IsNotExist(err) {
		return err
	}
	log, err := wal.OpenAppend(logPath, j.fsync)
	if err != nil {
		return err
	}
	log.SetStats(m.met.logStats)
	j.log = log
	_ = wal.RemoveBelow(dir, seq, j.segmentFloor(seq)) // leftovers of an interrupted rotation
	m.j = j
	attached = true
	return nil
}

// --- the write path ---

// usable errors a mutation when the journal is closed or poisoned; it
// runs under the writer lock.
func (j *journal) usable() error {
	if j.closed {
		return errClosed
	}
	if j.appendErr != nil {
		return fmt.Errorf("incremental: journal failed, snapshot or restart to recover: %w", j.appendErr)
	}
	return nil
}

// encodeOps encodes a batch as one WAL payload: single ops keep the
// legacy one-op record layout, larger batches nest every op payload in
// one opBatch record (torn mid-write, the whole vector vanishes on
// replay — batch atomicity under crash).
func encodeOps(ops []Op) []byte {
	if len(ops) == 1 {
		return encodeOp(ops[0])
	}
	subs := make([][]byte, len(ops))
	for i := range ops {
		subs[i] = encodeOp(ops[i])
	}
	return wal.EncodeBatch([]byte{opBatch}, subs)
}

func encodeOp(op Op) []byte {
	switch op.Kind {
	case OpInsert:
		// The owned clone, not the caller's slice: what lands in the log
		// is byte-for-byte what the in-memory apply below will index.
		return encodeInsert(op.Key, op.owned)
	case OpDelete:
		return encodeDelete(op.Key)
	default:
		return encodeUpdate(op.Key, op.ai, op.Value)
	}
}

// afterAppend runs under the writer lock: counts the journaled ops and
// kicks the background snapshotter once the segment outgrows the
// threshold (the cadence counts mutations, so a 1000-op batch advances
// it by 1000, not by one record). The snapshot runs in its own goroutine
// (single-flight) and takes the writer lock itself, so it briefly
// quiesces writers while the state image is serialized.
func (j *journal) afterAppend(m *Monitor, n int) {
	records := int(j.records.Add(int64(n)))
	if j.snapEvery > 0 && records >= j.snapEvery && records >= j.retryAt &&
		j.snapping.CompareAndSwap(false, true) {
		go func() {
			defer j.snapping.Store(false)
			_ = j.snapshot(m) // outcome lands in lastSnapErr
		}()
	}
}

// snapshot rolls the journal to a new generation: write snap-(seq+1),
// start the empty wal-(seq+1), then garbage-collect the old generation.
// At every crash point the directory still holds one complete recovery
// path. The outcome — of every trigger path: record count, wall clock,
// ForceSnapshot — is recorded in lastSnapErr for JournalStats, so a
// stale failure never outlives a later successful snapshot.
func (j *journal) snapshot(m *Monitor) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j.closed {
		return errClosed
	}
	err := j.snapshotLocked(m)
	if err != nil {
		msg := err.Error()
		j.lastSnapErr.Store(&msg)
		j.retryAt = int(j.records.Load()) + j.snapEvery
	} else {
		j.lastSnapErr.Store(nil)
		j.retryAt = 0
		// A fresh segment now starts from the in-memory state, so a
		// poisoned journal (uncertain trailing record in the old, now
		// garbage-collected segment) is whole again.
		j.appendErr = nil
	}
	return err
}

func (j *journal) snapshotLocked(m *Monitor) error {
	return j.rollLocked(m, j.seq.Load()+1)
}

// rollLocked advances the journal to an explicit generation: snap-newSeq
// is the full state image, wal-newSeq the fresh segment, and generations
// below the retention window are collected. The snapshot trigger always
// rolls to seq+1; a follower rolls to the primary's segment numbers so
// its directory mirrors the stream it applies (see follower.go).
func (j *journal) rollLocked(m *Monitor, newSeq uint64) error {
	if seq := j.seq.Load(); newSeq <= seq {
		return fmt.Errorf("incremental: roll to generation %d at generation %d", newSeq, seq)
	}
	met := m.met
	rollStart := time.Now()
	// The outgoing segment must be durably complete BEFORE the snapshot
	// that supersedes it exists: the snapshot embodies every record the
	// segment holds (including a buffered, unsynced tail under
	// Fsync=off), and with retention a crash between the snapshot write
	// and the segment's close would otherwise leave a short wal-N on
	// disk that a follower reads to the end and trusts — silently
	// missing the lost tail, with no CRC error to catch it.
	if err := j.log.Sync(); err != nil {
		return err
	}
	snapStart := time.Now()
	if err := wal.WriteSnapshot(j.dir, newSeq, m.writeSnapshot); err != nil {
		return err
	}
	met.snapshotSeconds.ObserveSince(snapStart)
	newLog, err := wal.Create(wal.LogPath(j.dir, newSeq), j.fsync)
	if err != nil {
		// Without its log segment the new snapshot must not become the
		// recovery base: ops would keep landing in the old segment.
		os.Remove(wal.SnapshotPath(j.dir, newSeq))
		return err
	}
	newLog.SetStats(met.logStats)
	old := j.log
	j.log = newLog
	j.seq.Store(newSeq)
	j.records.Store(0)
	old.Close()
	_ = wal.RemoveBelow(j.dir, newSeq, j.segmentFloor(newSeq))
	met.rollSeconds.ObserveSince(rollStart)
	met.snapshots.Inc()
	return nil
}

// segmentFloor is the oldest log segment retention keeps at generation
// seq: RetainSegments closed segments behind the current one.
func (j *journal) segmentFloor(seq uint64) uint64 {
	if uint64(j.retain) >= seq {
		return 0
	}
	return seq - uint64(j.retain)
}

// --- record codec ---

func encodeInsert(key int64, t relation.Tuple) []byte {
	n := 1 + binary.MaxVarintLen64
	for _, v := range t {
		n += binary.MaxVarintLen64 + len(v)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, opInsert)
	buf = binary.AppendUvarint(buf, uint64(key))
	for _, v := range t {
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, v...)
	}
	return buf
}

func encodeDelete(key int64) []byte {
	buf := make([]byte, 0, 1+binary.MaxVarintLen64)
	buf = append(buf, opDelete)
	return binary.AppendUvarint(buf, uint64(key))
}

func encodeUpdate(key int64, ai int, val relation.Value) []byte {
	buf := make([]byte, 0, 1+3*binary.MaxVarintLen64+len(val))
	buf = append(buf, opUpdate)
	buf = binary.AppendUvarint(buf, uint64(key))
	buf = binary.AppendUvarint(buf, uint64(ai))
	buf = binary.AppendUvarint(buf, uint64(len(val)))
	return append(buf, val...)
}

// replayLocked applies one journaled record — a recovered log tail's or
// a shipped chunk's — through the live window's validator and
// apply-and-fold step, minus the append, and returns how many mutations
// it carried (a batch record's op count). Records were validated before
// they were appended, so an error means the directory does not belong
// to this schema/Σ. The record CRC already guarantees a batch is whole,
// so replay never sees part of one. The caller holds m.mu.
func (m *Monitor) replayLocked(payload []byte) (int, error) {
	if len(payload) > 0 && payload[0] == opEpoch {
		// Fencing marker: no mutation, just the term the rest of the
		// segment is written under. Epochs only grow along a log, but
		// max-store anyway so a replayed prefix can never lower one.
		d := &dec{s: string(payload[1:])}
		e := d.uvarint()
		if d.err != nil {
			return 0, fmt.Errorf("incremental: replaying epoch record: %w", d.err)
		}
		if e > m.epoch.Load() {
			m.epoch.Store(e)
		}
		return 0, nil
	}
	var ops []Op
	var err error
	if len(payload) > 0 && payload[0] == opBatch {
		err = wal.DecodeBatch(payload[1:], func(sub []byte) error {
			op, err := m.decodeOp(sub)
			ops = append(ops, op)
			return err
		})
	} else {
		ops = make([]Op, 1)
		ops[0], err = m.decodeOp(payload)
	}
	if err == nil {
		err = m.validateWindowReq(ops, nil)
	}
	if err != nil {
		return 0, fmt.Errorf("incremental: replaying record: %w", err)
	}
	for i := range ops {
		if nk := ops[i].Key + 1; ops[i].Kind == OpInsert && nk > m.nextKey.Load() {
			m.nextKey.Store(nk)
		}
	}
	m.applyLocked([][]Op{ops})
	return len(ops), nil
}

// decodeOp decodes one single-op payload into an op ready for
// validation. A journaled insert carries its key, so it decodes as keyed:
// a collision with a live tuple reads as corruption, not an overwrite.
func (m *Monitor) decodeOp(payload []byte) (Op, error) {
	d := &dec{s: string(payload)}
	op := Op{Kind: OpKind(d.byte()), Key: int64(d.uvarint())}
	switch op.Kind {
	case OpInsert:
		op.owned, op.keyed = d.strs(m.schema.Len()), true
	case OpDelete:
	case OpUpdate:
		op.ai, op.Value = int(d.uvarint()), d.str()
		if d.err == nil && op.ai >= m.schema.Len() {
			return op, fmt.Errorf("incremental: update attribute index %d out of range", op.ai)
		}
	default:
		return op, fmt.Errorf("incremental: unknown WAL op %d", op.Kind)
	}
	return op, d.err
}

// --- surface ---

// Recovered reports whether this monitor's state was rebuilt from an
// existing WAL directory (as opposed to a fresh seed or empty start).
func (m *Monitor) Recovered() bool { return m.j != nil && m.j.recovered }

// ForceSnapshot synchronously rolls the durable monitor to a new
// generation: full state image, fresh log segment, old generation
// garbage-collected. It errors on a monitor without a WAL directory, and
// on a follower — a read-only monitor's generations must keep mirroring
// the primary's segment numbers, so only the replication loop may roll.
func (m *Monitor) ForceSnapshot() error {
	if m.j == nil {
		return errors.New("incremental: monitor is not durable")
	}
	if m.readOnly.Load() {
		return ErrReadOnly
	}
	return m.j.snapshot(m)
}

// Close syncs and closes the journal; further mutations error. It is a
// no-op for a non-durable monitor. Close does not snapshot — callers that
// want the fastest next boot call ForceSnapshot first.
func (m *Monitor) Close() error {
	if m.j == nil {
		return nil
	}
	j := m.j
	m.mu.Lock()
	defer m.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	err := j.log.Close()
	if uerr := j.lock.Unlock(); err == nil {
		err = uerr
	}
	return err
}

// JournalStats describes the durable state of a monitor.
type JournalStats struct {
	// Durable reports whether the monitor journals at all.
	Durable bool
	// Dir is the WAL directory.
	Dir string
	// Generation is the current snapshot/segment sequence number.
	Generation uint64
	// SegmentRecords counts records in the current log segment.
	SegmentRecords int
	// Recovered reports whether startup restored existing state.
	Recovered bool
	// LastSnapshotErr is the error of the most recent background
	// snapshot, empty when it succeeded.
	LastSnapshotErr string
}

// JournalStats returns the durable-state counters (zero values for a
// non-durable monitor). Like every reader it never takes the writer
// lock, so it answers while a commit window fsyncs or a snapshot rolls;
// each counter is current, the three are not read as one cut.
func (m *Monitor) JournalStats() JournalStats {
	if m.j == nil {
		return JournalStats{}
	}
	j := m.j
	st := JournalStats{
		Durable:        true,
		Dir:            j.dir,
		Generation:     j.seq.Load(),
		SegmentRecords: int(j.records.Load()),
		Recovered:      j.recovered,
	}
	if msg := j.lastSnapErr.Load(); msg != nil {
		st.LastSnapshotErr = *msg
	}
	return st
}
