// Package repro is a complete Go implementation of Conditional Functional
// Dependencies (CFDs) for data cleaning, reproducing
//
//	P. Bohannon, W. Fan, F. Geerts, X. Jia, A. Kementsietsidis.
//	"Conditional Functional Dependencies for Data Cleaning". ICDE 2007.
//
// A CFD couples a standard functional dependency X → Y with a pattern
// tableau that binds semantically related data values, e.g.
//
//	[CC=44, ZIP] -> [STR]          // in the UK, zip code determines street
//	[CC=01, AC=212, PN] -> [STR, CT=NYC, ZIP]
//
// The library provides, through this package's facade:
//
//   - The CFD model: pattern tableaux, the match operator, satisfaction
//     checking and a text notation (ParseCFD / ParseCFDSet).
//   - Reasoning (Section 3 of the paper): consistency analysis, a sound
//     and complete implication test, and minimal covers (Consistent,
//     Implies, MinimalCover). The inference system FD1–FD8 lives in
//     internal/core for programmatic derivations.
//   - Violation detection (Section 4): a pure-Go detector plus the
//     paper's SQL technique — generated (QC, QV) query pairs in CNF or
//     DNF, and the merged two-pass variant — executed on an embedded SQL
//     engine, optionally through database/sql (driver "cfdmem").
//   - Incremental violation monitoring (beyond the paper; see
//     internal/incremental): a stateful Monitor that keeps the violation
//     set live under tuple inserts, deletes and updates in time
//     proportional to the affected index buckets, emitting the exact
//     violation delta of every change (NewMonitor, LoadMonitor). Changes
//     batch as ChangeSets through Monitor.Apply — see "Batched ingest"
//     below. The cfdserve command exposes it as an HTTP service (POST
//     /v1/apply).
//   - Durability for the serving path (internal/wal): with
//     MonitorOptions.Durable set to a directory, the Monitor journals
//     every mutation to a write-ahead log and periodically snapshots its
//     full state, so a restart recovers in milliseconds instead of
//     re-loading and re-indexing the source CSV. See "Durability
//     guarantees" below.
//   - WAL segment shipping and hot standby (see "Replication" below): a
//     durable Monitor serves its snapshot and log segments as
//     record-aligned chunks, and a MonitorFollower (FollowMonitor) tails
//     them into its own WAL directory as a read-only replica, promotable
//     to a writable primary at the record boundary it has applied.
//     cfdserve exposes both sides: GET /v1/wal/snapshot + GET
//     /v1/wal/stream on the primary, -follow / POST /v1/promote on the
//     standby.
//   - Scale-out writes (internal/cluster; see "Replication" below): a
//     consistent-hash ring partitions tuple keys across independent
//     shard groups, each a primary with optional followers; a Router
//     splits every ChangeSet by owning group, fans the sub-batches out
//     in parallel under epoch-stamped fencing, and merges the violation
//     deltas (NewClusterRouter, ClusterLocalBackend). The cfdrouter
//     command is the HTTP daemon over cfdserve shard nodes; bench/'s
//     routed-mixed workload measures its throughput and latency.
//   - CFD discovery on demand (the Section 7 future-work item; see
//     internal/discovery): DiscoverCFDs mines an instance in one
//     level-wise pass over stripped partitions; over a live monitor,
//     mine its Snapshot. See "Discovery on demand" below. cfdserve
//     serves it as GET /v1/discover, on the monitor's own value IDs.
//   - A heuristic repair algorithm (Section 6): cost-based value
//     modification with the CFD-specific LHS-breaking move (Repair),
//     plus a live variant on the Monitor — WatchRepairs keeps a
//     cost-ranked fix suggestion per live violation current under
//     changes. See "Live repair" below. cfdserve serves the ranked set
//     as GET /v1/repairs and applies picked fixes through POST
//     /v1/repairs/apply; cfdrepair is the batch CLI over Repair.
//   - The paper's experimental workload generator (Section 5): tax
//     records with SZ/NOISE knobs and CFD workloads with NUMATTRs, TABSZ
//     and NUMCONSTs knobs.
//
// # Batched ingest
//
// Every mutation of a Monitor flows through one path: Monitor.Apply
// takes a ChangeSet — an ordered vector of insert/delete/update ops —
// and the single-op Insert, Delete and Update are one-element wrappers
// over it.
//
// Ordering: ops on the same tuple key take effect in vector order, so a
// batch may insert a tuple and update or delete it later in the same
// ChangeSet (validation simulates existence through the batch prefix).
// Ops on different keys commute; the returned delta is the batch's net
// effect on the violation set — a violation raised and retired within
// one batch does not appear at all — and is the same under any
// interleaving. Inserted keys are assigned in vector order and written
// back into the ChangeSet's ops.
//
// Validation is all-or-nothing: arity, domain, attribute-name and
// key-existence checks run for the entire vector before any op is
// applied, and one invalid op rejects the whole ChangeSet with its op
// position; nothing is applied and nothing journaled.
//
// Atomicity under crash: a durable Monitor journals a ChangeSet as ONE
// length-prefixed, CRC-framed WAL record. A crash mid-write tears the
// record as a unit, so recovery replays all of the batch or none of it
// — never a prefix of its ops. The mid-batch kill property test
// (internal/incremental) truncates logs inside batch records and checks
// recovery lands exactly on a batch boundary.
//
// Fsync-per-window: with MonitorOptions.Fsync, a batch costs at most one
// disk sync regardless of its length — BenchmarkApplyBatchFsync100K
// measures the per-op cost against batch size and concurrent writers;
// a 1000-op ChangeSet lands an order of magnitude faster than 1000
// single fsynced ops.
// Apply also amortizes the in-memory work: a whole commit window applies
// in one loop under one hold of the store lock, so point readers see it
// whole or not at all.
//
// # Discovery on demand
//
// DiscoverCFDs is one computation over the relation it is given, a
// level-wise search over stripped partitions in the TANE lineage: the
// relation is interned once into columns of dense value IDs, π_A is
// built per attribute, and π_{X∪B} refines π_X by column B through a
// probe table, a level freed once the next is built. Every candidate
// X → A (|X| ≤ MaxLHS) reads its per-group A-value counts off π_X; a
// candidate some smaller LHS already determines is never scored. IDs
// carry no order: a dominant-value tie goes to the smallest value and
// pattern rows are ordered by value. On 5 000 generated tax tuples at
// MaxLHS 2 a run takes about 65 ms and 4 400 allocations
// (BenchmarkDiscovery). Mining a live monitor is
// DiscoverCFDs(m.Snapshot(), cfg): nothing rides the apply path.
// cfdserve's GET /v1/discover gets the same answer without the
// snapshot: it copies the monitor's own value IDs column by column
// under the store lock, renumbered over the live values, runs the same
// kernel on them, one run at a time per node, and streams the answer
// one mined CFD at a time. Mining again after a change shows what it
// broke.
//
// Monitor.TrackGroups reads the group statistics of Σ itself — every
// CFD's live LHS groups, with their support and the value distribution
// of each RHS attribute — as coalesced group-delta events a subscriber
// drains on its own schedule (MonitorGroupStats). The subscription
// keeps no groups of its own: the Monitor's groups are the ones the
// paper's QV query flags.
//
// # Durability guarantees
//
// A durable Monitor (MonitorOptions.Durable = dir) appends one
// length-prefixed, CRC-checked record per commit window — the
// ChangeSets of the writers that queued up together — to the
// generation's log segment (dir/wal-N, zero-padded) before touching the
// in-memory state, under the monitor's single writer lock, so log order
// always equals apply order and a replay rebuilds the exact pre-crash
// state.
//
// What survives what: every record reaches the OS in one write(2)
// before its writers are acknowledged, so killing the process — kill -9,
// a panic, the OOM killer — loses no acknowledged mutation, with or
// without Fsync. With MonitorOptions.Fsync the log is also fsynced after
// every window, so an acknowledged mutation survives OS crash and power
// loss too, at the cost of one disk sync per window. Without it (the
// default), only an OS crash or power loss can lose the unsynced tail.
// Snapshots are always fully durable regardless of Fsync: each one goes
// to a temp file that is fsynced and renamed into place, followed by a
// directory fsync.
//
// Snapshot cadence: MonitorOptions.SnapshotEvery rolls a background,
// single-flight snapshot after that many journaled records (0 disables;
// Monitor.ForceSnapshot rolls one synchronously — cfdserve exposes this
// as POST /v1/snapshot). A snapshot advances the generation: snap-(N+1) is
// written, an empty wal-(N+1) is started, and only then is generation N
// garbage-collected, so at every crash point the directory holds one
// complete recovery path.
//
// Recovery semantics: NewMonitor/LoadMonitor on a directory with
// existing state ignore any seed relation and instead load the latest
// snapshot, replay the log tail on top, and truncate a torn final
// record at the last intact boundary (a crash mid-append is expected,
// not an error). Monitor.Recovered reports which path ran, and
// Monitor.JournalStats exposes the generation, segment length and last
// snapshot error. The crash-recovery property test in
// internal/incremental kills the journal at arbitrary record boundaries
// and cross-checks the recovered violation set against the batch Direct
// detector.
//
// # Replication
//
// Segment lifecycle: a durable directory is a sequence of generations —
// snap-N is a full state image, wal-N the records applied since it. A
// snapshot roll closes wal-N and opens generation N+1; with
// MonitorOptions.RetainSegments > 0 the last K closed segments survive
// the roll (snapshots below the newest are always collected), which is
// what lets a briefly-disconnected follower resume its cursor instead of
// re-shipping a snapshot. The shipping surface (Monitor.WALChunk,
// Monitor.ShipSnapshot; cfdserve GET /v1/wal/stream and /v1/wal/snapshot)
// serves closed segments in full and the live segment up to its current
// length, always cut at record boundaries — a chunk never splits a
// framed record, so a connection torn mid-record leaves the cursor
// exactly where a crashed append would.
//
// Follower consistency: a MonitorFollower's state is, at every instant,
// a record-boundary prefix of the primary's journaled stream — never a
// partial record, and (because a ChangeSet is one record) never part of
// a batch. Chunks are appended to the follower's own WAL directory
// before they are applied, re-framed byte-identically, and the follower
// mirrors the primary's segment numbers by snapshotting its own state at
// every segment boundary; its directory is therefore a valid single-node
// recovery image of exactly the applied prefix, and a follower restart
// reuses the ordinary torn-tail-tolerant recovery before resuming the
// stream (bench/'s routed-mixed workload times a fresh standby's sync
// as e2e.standby_sync_s). Replication is asynchronous: an acknowledged
// primary write may not have reached the follower yet and — with Fsync
// off — a primary whose OS crashed can even recover behind a follower
// that already applied its unsynced tail; promotion, not re-subscription, is the intended
// response to a dead primary (see the fencing note below). Reads
// (Violations, stats, discovery) serve on the follower throughout; mutations and ForceSnapshot
// return ErrMonitorReadOnly. A follower whose cursor falls below the
// primary's retention window gets ErrWALSegmentGone and must resync
// from the current snapshot (FollowOptions.Resync; cfdserve does this
// automatically).
//
// Promotion semantics: MonitorFollower.Promote (cfdserve POST /v1/promote,
// or -promote-after on sustained primary loss) stops the tail loop,
// lets any in-flight chunk finish under the writer lock, and lifts
// the read-only gate — an atomic flip at the exact record boundary the
// follower has applied. From then on the monitor journals its own
// mutations into the same directory and behaves as a primary in every
// way, including serving /wal to its own followers.
//
// Fencing: promotion bumps the node's epoch — a monotonic term number
// journaled as a WAL record before the first post-promotion write and
// echoed on /v1/wal/stream chunks (X-Wal-Epoch), in /v1/stats, and as the
// cfd_epoch gauge. A mutation can be stamped with the epoch the caller
// believes the history is at (Monitor.ApplyAt; X-Cfd-Epoch on cfdserve
// mutations): a node whose epoch differs refuses it with
// ErrMonitorFenced, and a stamp from a NEWER epoch permanently fences
// the node — the deposed primary learns of its deposition from the
// very write that would have forked history, with no coordination
// channel needed. POST /v1/fence (Monitor.Fence) delivers the same verdict
// eagerly, and cluster.Router.Promote calls it on the old primary
// best-effort after every failover. A merely-partitioned old primary
// therefore cannot accept a routed write into a diverged history:
// cfdrouter stamps every fan-out with the group's epoch, so the two
// sides of a partition cannot both be writable. docs/operations.md
// walks through the failover procedure; the failover and cluster
// property tests kill primaries at random record boundaries, promote,
// and cross-check the survivors against the single-node oracle while
// asserting the deposed primary refuses writes.
//
// # Observability
//
// Everything on the serving path is instrumented through internal/obs,
// a zero-dependency metrics core: atomic counters and gauges, lock-free
// power-of-two-bucket histograms (Quantile extracts p50/p95/p99), and a
// hand-rolled Prometheus text-exposition writer — no client library. A
// Monitor takes its registry from MonitorOptions.Metrics: nil gives it
// a private registry (hermetic tests; read it back via Monitor.Metrics),
// and DefaultMetrics() shares the process-global one (what cfdserve
// does). Instrumentation is always on: the hot path pays a few atomic
// adds and the clock reads that feed the stage timers, and every
// bench/ workload runs with it.
//
// The metric catalog, all registered by the monitor (histograms are
// *_bucket/_sum/_count families in seconds):
//
//	cfd_apply_ops_total{op}         mutations applied, by insert/delete/update
//	cfd_apply_batches_total         ChangeSets applied through Monitor.Apply
//	cfd_apply_rejected_total        ChangeSets rejected by validation
//	cfd_apply_seconds               whole-batch apply latency
//	cfd_apply_validate_seconds      the validation stage, per commit window
//	cfd_apply_wal_append_seconds    the journal stage (append + any fsync)
//	cfd_apply_shard_seconds         the apply + consumer-fold stage
//	cfd_group_commit_window_ops     ops committed per commit window
//	cfd_group_commit_window_writers writers coalesced per commit window
//	cfd_group_commit_wait_seconds   a follower's wait for its leader
//	cfd_violations_added_total      violation-delta entries raised
//	cfd_violations_removed_total    violation-delta entries retired
//	cfd_tuples, cfd_violations      live set sizes (gauges)
//	cfd_wal_append_seconds          WAL record framing + write(2)
//	cfd_wal_fsync_seconds           WAL fsync
//	cfd_wal_records_total           WAL records appended
//	cfd_wal_append_bytes_total      WAL bytes appended, framing included
//	cfd_wal_snapshot_seconds        snapshot write
//	cfd_wal_segment_roll_seconds    whole generation roll
//	cfd_wal_snapshots_total         generation rolls
//	cfd_replica_*                   follower only: chunks/records/bytes
//	                                shipped, fetch errors, apply latency,
//	                                lag in bytes and segments
//
// cfdserve serves its registry — the monitor series above plus
// per-endpoint cfdserve_http_requests_total / cfdserve_http_errors_total
// / cfdserve_http_request_seconds — as GET /v1/metrics in the Prometheus
// text format, points Prometheus at itself with a plain scrape config,
// and reports uptime and build identity in GET /v1/stats. -pprof-addr
// opens a second, private listener with net/http/pprof for CPU and heap
// profiles (go tool pprof http://host:port/debug/pprof/profile).
// Diagnostics in both CLIs flow through log/slog: -log-level picks the
// threshold (debug, info, warn, error), -log-json switches stderr to
// JSON lines.
//
// # Write-path raw speed
//
// Two mechanisms serve unbatched write traffic (see ARCHITECTURE.md for
// the full write-path walk-through). The commit queue, always on and
// knob-free, coalesces concurrent writers into shared commit windows —
// whoever queued while the previous window held the writer lock rides
// the next one: one combined WAL record and one fsync per window, with
// per-writer validation and deltas — closing most of the gap to
// hand-batched ChangeSets without asking callers to batch. And the
// monitor stores tuples and group keys as dense value IDs
// (4-byte columns interned through one value pool) rather than string
// maps, so group probes hash and compare integers and resident memory
// per tuple drops accordingly. The writers cases of
// BenchmarkApplyBatchFsync100K measure the coalescing, and bench/'s
// incremental.bytes_per_tuple the memory.
//
// # Live repair
//
// The batch Repair of Section 6 re-plans the whole instance on every
// run. WatchRepairs is its streaming counterpart: a RepairSuggester
// attaches to a Monitor, plans one cost-ranked fix per live violation —
// an RHS edit for a constant violation; for a variable violation
// whichever of merging the group onto its cheapest representative or
// breaking the cheapest LHS cell costs less under the CostModel and the
// Monitor's group distributions — and on every Refresh re-plans only
// what the intervening ChangeSets touched, O(Δ) per batch rather than
// O(|I|). It runs on two feeds of its own: the tuple keys the writes
// changed on an attribute of Σ (each key's constant-violation
// suggestions are re-planned from one probe of the monitor's stores),
// and the group statistics of Σ's own LHS groups (every
// variable-violation flip moves a group of the CFD, so the group deltas
// alone re-plan the variable suggestions). The same
// deltas carry each CFD's live confidence — the fraction of tuples
// agreeing with their LHS group's dominant RHS value, the worst over
// its RHS attributes. A CFD whose confidence has eroded below
// SuggestOptions.TrustThreshold (the relative-trust loop) stops
// generating data edits and instead surfaces one
// constraint-relaxation suggestion, on the principle that low-trust
// constraints should bend before high-trust data.
//
// Accepted suggestions never bypass the write path: Plan turns a set of
// suggestion IDs into an ordinary ChangeSet (plus the per-cell edit
// list for display), which flows through Monitor.Apply — and therefore
// through the commit queue, the WAL, replication and fencing — like any
// other write. cfdserve serves the ranked set as GET /v1/repairs
// (cost-ascending, paginated, version-tagged for If-None-Match) and
// applies picked IDs via POST /v1/repairs/apply; cfdrouter fans
// GET /v1/repairs out across shard groups; cmd/cfdrepair is the batch
// CLI over Repair, whose multi-pass planner certifies I′ ⊨ Σ. bench/
// reports the re-plan after a ChangeSet as serve-read's
// repair.refresh_ms and one batch repair as batch-clean's
// repair.batch_ms.
//
// See README.md for a walkthrough, ARCHITECTURE.md for the subsystem
// map and data-flow diagrams, docs/operations.md for the cfdserve
// runbook, DESIGN.md for design rationale and EXPERIMENTS.md for the
// reproduction of every figure in the paper.
package repro
