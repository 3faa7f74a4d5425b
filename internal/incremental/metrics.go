package incremental

import (
	"repro/internal/obs"
	"repro/internal/wal"
)

// This file binds the Monitor's hot paths to the obs metrics core. A
// monitor always instruments itself — into a private registry by
// default, so tests stay hermetic; a process daemon passes obs.Default()
// through Options.Metrics so one scrape covers every component.
//
// The discipline on the hot path: updating a handle is a few atomic
// adds (never an allocation, never a lock), plus the time.Now() reads
// that feed the stage timers.

// monMetrics holds the Monitor's metric handles, registered once at
// build time so the apply path never goes through the registry map.
type monMetrics struct {
	reg *obs.Registry

	// Apply pipeline (changeset.go).
	opsInsert, opsDelete, opsUpdate *obs.Counter
	batches, rejected               *obs.Counter
	fencedRejected                  *obs.Counter
	applySeconds                    *obs.Histogram // whole Apply, all modes
	validateSeconds                 *obs.Histogram // window validation stage
	walAppendSeconds                *obs.Histogram // journal append incl. fsync
	shardApplySeconds               *obs.Histogram // in-memory apply + folds
	violationsAdded                 *obs.Counter
	violationsRemoved               *obs.Counter

	// Maintained violation view (view.go).
	viewRebuilds *obs.Counter

	// Commit queue (changeset.go), under the cfd_group_commit_* names.
	gcWindowOps     *obs.Histogram // ops committed per window
	gcWindowWriters *obs.Histogram // writers coalesced per window
	gcWaitSeconds   *obs.Histogram // follower wait for its leader's commit

	// Journal rotation (journal.go).
	snapshotSeconds *obs.Histogram // WriteSnapshot alone
	rollSeconds     *obs.Histogram // whole generation roll
	snapshots       *obs.Counter

	// WAL segment internals, observed by wal.Log itself.
	logStats wal.LogStats
}

func newMonMetrics(reg *obs.Registry) *monMetrics {
	mm := &monMetrics{reg: reg}
	const opsHelp = "Mutations applied through Monitor.Apply, by op kind."
	mm.opsInsert = reg.Counter("cfd_apply_ops_total", opsHelp, obs.L("op", "insert"))
	mm.opsDelete = reg.Counter("cfd_apply_ops_total", opsHelp, obs.L("op", "delete"))
	mm.opsUpdate = reg.Counter("cfd_apply_ops_total", opsHelp, obs.L("op", "update"))
	mm.batches = reg.Counter("cfd_apply_batches_total", "ChangeSets applied through Monitor.Apply.")
	mm.rejected = reg.Counter("cfd_apply_rejected_total", "ChangeSets refused before applying (validation failure, read-only follower, poisoned journal).")
	mm.fencedRejected = reg.Counter("cfd_fenced_appends_total", "Mutations refused because the node is fenced (a higher-epoch primary exists).")
	mm.applySeconds = reg.DurationHistogram("cfd_apply_seconds", "End-to-end Monitor.Apply latency per ChangeSet.")
	mm.validateSeconds = reg.DurationHistogram("cfd_apply_validate_seconds", "Key-existence validation stage per commit window.")
	mm.walAppendSeconds = reg.DurationHistogram("cfd_apply_wal_append_seconds", "WAL append stage per commit window, including the fsync when enabled.")
	mm.shardApplySeconds = reg.DurationHistogram("cfd_apply_shard_seconds", "In-memory apply stage per commit window.")
	mm.violationsAdded = reg.Counter("cfd_violations_added_total", "Violations that appeared, summed over apply deltas.")
	mm.violationsRemoved = reg.Counter("cfd_violations_removed_total", "Violations that were retired, summed over apply deltas.")
	mm.viewRebuilds = reg.Counter("cfd_violations_view_rebuilds_total", "Lazy materializations of the violation view (at most one per view version).")
	mm.gcWindowOps = reg.Histogram("cfd_group_commit_window_ops", "Ops committed per commit window (one WAL record and at most one fsync when durable).")
	mm.gcWindowWriters = reg.Histogram("cfd_group_commit_window_writers", "Concurrent writers coalesced per commit window.")
	mm.gcWaitSeconds = reg.DurationHistogram("cfd_group_commit_wait_seconds", "Time a window follower waits for its leader's validate, append, fsync and apply.")

	mm.snapshotSeconds = reg.DurationHistogram("cfd_wal_snapshot_seconds", "Time to serialize and durably write one full-state snapshot.")
	mm.rollSeconds = reg.DurationHistogram("cfd_wal_segment_roll_seconds", "Time for one whole generation roll: segment sync, snapshot, fresh segment, GC.")
	mm.snapshots = reg.Counter("cfd_wal_snapshots_total", "Completed generation rolls (snapshot + fresh segment).")

	mm.logStats = wal.LogStats{
		AppendSeconds: reg.DurationHistogram("cfd_wal_append_seconds", "Time to frame and write one WAL record (fsync excluded)."),
		SyncSeconds:   reg.DurationHistogram("cfd_wal_fsync_seconds", "Time to fsync the WAL segment."),
		Records:       reg.Counter("cfd_wal_records_total", "Records appended to the WAL."),
		Bytes:         reg.Counter("cfd_wal_append_bytes_total", "Bytes appended to the WAL, framing included."),
	}
	return mm
}

// countOps bumps the per-kind op counters for one applied batch.
func (mm *monMetrics) countOps(ops []Op) {
	var ins, del, upd uint64
	for i := range ops {
		switch ops[i].Kind {
		case OpInsert:
			ins++
		case OpDelete:
			del++
		default:
			upd++
		}
	}
	if ins > 0 {
		mm.opsInsert.Add(ins)
	}
	if del > 0 {
		mm.opsDelete.Add(del)
	}
	if upd > 0 {
		mm.opsUpdate.Add(upd)
	}
}

// followerMetrics holds a Follower's replication handles; registered
// only when a follower exists, so a plain primary's scrape carries no
// replica series.
type followerMetrics struct {
	chunks       *obs.Counter
	records      *obs.Counter
	bytes        *obs.Counter
	fetchErrors  *obs.Counter
	applySeconds *obs.Histogram
	lagBytes     *obs.Gauge
	lagSegments  *obs.Gauge
}

func newFollowerMetrics(reg *obs.Registry) *followerMetrics {
	return &followerMetrics{
		chunks:       reg.Counter("cfd_replica_chunks_total", "WAL chunks fetched from the primary."),
		records:      reg.Counter("cfd_replica_records_total", "Shipped records applied by the follower."),
		bytes:        reg.Counter("cfd_replica_bytes_total", "Shipped WAL bytes applied by the follower."),
		fetchErrors:  reg.Counter("cfd_replica_fetch_errors_total", "Failed chunk/snapshot exchanges with the primary."),
		applySeconds: reg.DurationHistogram("cfd_replica_apply_seconds", "Time to apply one shipped chunk locally."),
		lagBytes:     reg.Gauge("cfd_replica_lag_bytes", "Byte distance to the primary's tail within the shared segment; -1 while segments behind."),
		lagSegments:  reg.Gauge("cfd_replica_lag_segments", "Whole segments the follower trails the primary by."),
	}
}

// Metrics returns the registry this monitor instruments itself into:
// the one passed via Options.Metrics, or a private registry when none
// was given. Layers stacked on a monitor (the repair Suggester, servers)
// register their own series here so one scrape covers the whole node.
func (m *Monitor) Metrics() *obs.Registry { return m.met.reg }
