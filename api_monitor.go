package repro

import (
	"context"

	"repro/internal/incremental"
	"repro/internal/obs"
)

// Incremental violation monitoring (the serving path; see
// internal/incremental).
type (
	// Monitor maintains a live violation set under tuple-level changes.
	// A durable Monitor (MonitorOptions.Durable) additionally offers
	// ForceSnapshot, Close, Recovered and JournalStats.
	Monitor = incremental.Monitor
	// MonitorOptions tunes the monitor's durability — Durable (the WAL
	// directory; non-empty enables write-ahead journaling and
	// snapshot/log recovery), Fsync (sync every commit window),
	// SnapshotEvery (background snapshot cadence in records) and
	// RetainSegments (closed segments kept for WAL shipping) — and
	// Metrics, the observability registry the monitor instruments itself
	// into (nil: a private registry; DefaultMetrics(): the process-global
	// one). Concurrent writers always share commit windows: one WAL
	// record and one fsync per window.
	MonitorOptions = incremental.Options
	// MonitorJournalStats describes a monitor's durable state (generation,
	// records since last snapshot, recovery provenance).
	MonitorJournalStats = incremental.JournalStats
	// ChangeSet is an ordered vector of insert/delete/update ops applied
	// as one batch via Monitor.Apply: validated as a unit, journaled
	// inside a single WAL record (atomic under crash), and applied in
	// vector order.
	// Build one with its Insert/Delete/Update methods or an Ops literal;
	// after Apply, inserted keys are in ChangeOp.Key.
	ChangeSet = incremental.ChangeSet
	// ChangeOp is one mutation within a ChangeSet.
	ChangeOp = incremental.Op
	// ChangeOpKind discriminates ChangeOp mutations.
	ChangeOpKind = incremental.OpKind
	// ViolationDelta is the net violation change caused by one operation.
	ViolationDelta = incremental.Delta
	// ViolationChange is one added or retired violation within a delta.
	ViolationChange = incremental.Change
	// MonitorState is a point-in-time snapshot of the live violation set.
	MonitorState = incremental.State
	// MonitorViolations is one CFD's entry in a MonitorState.
	MonitorViolations = incremental.CFDViolations
	// MonitorViolationsView is an immutable published snapshot of the
	// live violation set, rebuilt from the monitor's violation stores for
	// the CFDs an apply moved and swapped atomically — Monitor.View
	// returns the current one (a
	// pointer load at an unchanged version), Monitor.ViewVersion the
	// version counter conditional reads compare against.
	MonitorViolationsView = incremental.ViolationsView
)

// ChangeOp kinds (see ChangeOp.Kind).
const (
	OpInsert = incremental.OpInsert
	OpDelete = incremental.OpDelete
	OpUpdate = incremental.OpUpdate
)

// Observability (see the "Observability" section of the package
// documentation and internal/obs). Every Monitor instruments its apply
// pipeline, WAL and replication into a MetricsRegistry; layers on top
// (the repair Suggester, cfdserve's HTTP middleware) register theirs into
// the same registry, and WritePrometheus renders it all in Prometheus
// text exposition format.
type (
	// MetricsRegistry collects counters, gauges and power-of-two-bucket
	// histograms; render with its WritePrometheus method.
	MetricsRegistry = obs.Registry
	// MetricLabel is one name=value pair distinguishing series within a
	// metric family.
	MetricLabel = obs.Label
	// MetricCounter is a monotonically increasing series handle.
	MetricCounter = obs.Counter
	// MetricGauge is an up/down series handle.
	MetricGauge = obs.Gauge
	// MetricHistogram is a latency/size distribution handle with
	// p50/p95/p99 extraction (Quantile).
	MetricHistogram = obs.Histogram
)

// NewMetricsRegistry returns an empty registry — pass it through
// MonitorOptions.Metrics to collect one monitor's series in isolation.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// DefaultMetrics returns the process-global registry daemons share, so
// one /v1/metrics scrape covers every component wired into it.
func DefaultMetrics() *MetricsRegistry { return obs.Default() }

// WAL segment shipping and hot standby (see the "Replication" section of
// the package documentation): a durable Monitor exposes its snapshot and
// log segments as record-aligned chunks, and a MonitorFollower tails
// them into its own WAL directory as a read-only replica that can be
// promoted to a writable primary at the record boundary it has applied.
// cfdserve serves the primary side as GET /v1/wal/snapshot and
// GET /v1/wal/stream, and runs the follower side with -follow.
type (
	// MonitorFollower is a hot standby: a read-only Monitor tailing a
	// primary's WAL stream. See FollowMonitor.
	MonitorFollower = incremental.Follower
	// FollowOptions configures a MonitorFollower: the chunk source, poll
	// interval, chunk size, auto-promotion timeout, and resync.
	FollowOptions = incremental.FollowOptions
	// ReplicaStatus is a follower's replication position: applied
	// cursor, primary position, lag, last error.
	ReplicaStatus = incremental.ReplicaStatus
	// WALShipChunk is one record-aligned slice of a primary's WAL
	// stream, as served by Monitor.WALChunk.
	WALShipChunk = incremental.ShipChunk
	// WALChunkSource abstracts a primary's shipping surface (snapshot +
	// chunks); implemented over HTTP by cfdserve's follow mode and
	// in-process by NewMonitorChunkSource.
	WALChunkSource = incremental.ChunkSource
)

// Replication errors.
var (
	// ErrMonitorReadOnly reports a mutation against a following monitor;
	// promote it first (MonitorFollower.Promote, POST /v1/promote).
	ErrMonitorReadOnly = incremental.ErrReadOnly
	// ErrMonitorFenced reports a write refused because the node is
	// fenced: a higher-epoch history exists (a standby was promoted),
	// so this node's appends can no longer be acknowledged. See
	// Monitor.ApplyAt, Monitor.Fence and the internal/incremental
	// fencing docs.
	ErrMonitorFenced = incremental.ErrFenced
	// ErrWALSegmentGone reports a shipping cursor below the primary's
	// retention window (MonitorOptions.RetainSegments); the follower
	// must be rebuilt with FollowOptions.Resync.
	ErrWALSegmentGone = incremental.ErrSegmentGone
	// ErrPrimaryResponded marks a WALChunkSource error where the primary
	// was reached and answered (an HTTP error status): proof of
	// liveness. Sources should wrap such errors with it so the follower
	// retries without arming auto-promotion.
	ErrPrimaryResponded = incremental.ErrPrimaryResponded
)

// FollowMonitor boots a hot-standby follower of the primary behind
// FollowOptions.Source: local WAL state (opts.Durable, required) is
// recovered and resumed when present, otherwise the primary's current
// snapshot seeds the directory. The returned follower's Monitor serves
// reads (violations, stats, discovery) and refuses writes until
// Promote; drive replication with Run (long-lived tail loop) or Sync
// (one catch-up pass).
func FollowMonitor(ctx context.Context, sigma []*CFD, opts MonitorOptions, fo FollowOptions) (*MonitorFollower, error) {
	return incremental.NewFollower(ctx, sigma, opts, fo)
}

// NewMonitorChunkSource exposes a local durable monitor's WAL stream as
// a WALChunkSource — the in-process form of the shipping protocol, for
// tests, benchmarks and same-process replicas.
func NewMonitorChunkSource(m *Monitor) WALChunkSource {
	return incremental.NewMonitorSource(m)
}

// NewMonitor builds an empty incremental monitor for the schema and Σ;
// feed it with Monitor.Insert. Every monitor constructor refuses an
// inconsistent Σ (see Consistent), naming the CFDs that conflict. With
// opts.Durable set, every mutation is journaled to a write-ahead log
// before it is applied, and a directory that already holds journaled
// state is recovered (latest snapshot + log tail) instead of starting
// empty.
func NewMonitor(schema *Schema, sigma []*CFD, opts MonitorOptions) (*Monitor, error) {
	return incremental.New(schema, sigma, opts)
}

// LoadMonitor builds a monitor over an existing instance. Tuple keys are
// assigned 0..Len()-1 in row order, so they coincide with the batch
// detectors' row ids for the initial load.
//
// With opts.Durable set, LoadMonitor gains a recovery path: a directory
// that already holds journaled state wins over rel (the snapshot and log
// tail are replayed; the instance is ignored), while a fresh directory is
// seeded from rel and immediately snapshotted so later boots never touch
// the CSV again. Monitor.Recovered reports which path ran.
func LoadMonitor(rel *Relation, sigma []*CFD, opts MonitorOptions) (*Monitor, error) {
	return incremental.Load(rel, sigma, opts)
}

// ErrNoMonitorState reports that a WAL directory holds no snapshot to
// boot from; OpenMonitor callers fall back to seeding via LoadMonitor.
var ErrNoMonitorState = incremental.ErrNoState

// OpenMonitor boots a durable monitor from its WAL directory alone
// (opts.Durable): the schema is read from the latest snapshot, so the
// original data source is neither needed nor parsed. Σ still comes from
// the caller and is verified against the journaled state. Returns
// ErrNoMonitorState when the directory has no snapshot yet.
func OpenMonitor(sigma []*CFD, opts MonitorOptions) (*Monitor, error) {
	return incremental.Open(sigma, opts)
}
