package main

import "sort"

// kind is a request kind; latencies are kept per kind.
type kind uint8

const (
	kWrite    kind = iota // POST /v1/apply, one 32-op ChangeSet
	kPoint                // GET /v1/violations?key=K
	kPage                 // GET /v1/violations?limit=N, conditional
	kRepairs              // GET /v1/repairs?limit=N, conditional
	kStats                // GET /v1/stats
	kDiscover             // GET /v1/discover, once a second beside the mix
	numKinds
)

var kindNames = [numKinds]string{"write", "point", "page", "repairs", "stats", "discover"}

// opsPerChangeSet is the write unit. Single-op HTTP writes do not repeat
// on this box (2.2K/3.7K/4.2K req/s from the same code); 32-op
// ChangeSets do (within 3 %), so every write is one 32-op POST /v1/apply.
const opsPerChangeSet = 32

// workload is one row of the catalogue. Sizes and rates are constants.
// The paced rates are about a ninth of the closed-loop rate the 2-core
// sizing box reaches on a quiet minute: it has minutes three times slower, and an
// open loop that saturates then only measures its own backlog (see
// README.md).
type workload struct {
	name string
	why  string

	batch  bool // in-process, through the repro facade
	routed bool // cfdrouter → g0 {primary + follower}, g1 {primary}
	attach bool // Miner and Suggester attached before traffic

	tuples int // SZ
	tabsz  int // TABSZ of the workload CFD
	zipf   bool
	mix    [numKinds]int // shares by request count, summing to 100
	// principal is the request kind p50_ms reports.
	principal []kind
	pacedRate float64 // requests per second over both connections
	// recoverSets is the number of ChangeSets journaled between the
	// forced snapshot and the SIGKILL (serve-write only): the length of
	// the WAL tail recovery replays.
	recoverSets int
}

var workloads = map[string]workload{
	"batch-clean": {
		name:  "batch-clean",
		why:   "the paper's own path (consistency, min cover, three detectors, discovery, repair) in-process: no WAL, HTTP or cluster code runs, so it is the bypass for every serving optimisation",
		batch: true, tuples: 4000, tabsz: 500,
	},
	"serve-write": {
		name:   "serve-write",
		why:    "100 % 32-op ChangeSets against one durable buffered cfdserve, then snapshot, SIGKILL and recovery: decode, validate, WAL append, shard apply and view fold do nearly all the work",
		tuples: 20000, tabsz: 200,
		mix:         [numKinds]int{kWrite: 100},
		principal:   []kind{kWrite},
		pacedRate:   400,
		recoverSets: 500,
	},
	"serve-read": {
		name:   "serve-read",
		why:    "Zipf point and page reads, repairs polls and stats beside 10 % writes with Miner and Suggester attached: a write-path gain paid for by reads, attach or consumer refresh shows here",
		attach: true, zipf: true,
		tuples: 20000, tabsz: 200,
		mix:       [numKinds]int{kWrite: 10, kPoint: 55, kPage: 20, kRepairs: 10, kStats: 5},
		principal: []kind{kPoint, kPage},
		pacedRate: 120,
	},
	"routed-mixed": {
		name:   "routed-mixed",
		why:    "writes and standby-eligible reads through cfdrouter over two shard groups and a follower: the only workload where ring, fan-out, fencing stamps and WAL shipping do work",
		routed: true,
		tuples: 20000, tabsz: 200,
		mix:       [numKinds]int{kWrite: 50, kPoint: 25, kPage: 15, kRepairs: 10},
		principal: []kind{kWrite},
		pacedRate: 120,
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// tiny is the smoke sizing the tests use: the same code paths on 1 000
// tuples at a rate any box holds.
func (w workload) tiny() workload {
	w.tuples = 1000
	w.tabsz = 50
	if w.pacedRate > 100 {
		w.pacedRate = 100
	}
	if w.recoverSets > 0 {
		w.recoverSets = 50
	}
	return w
}

// metricDecl mirrors one entry of BENCHMARK.json; bench_test.go checks
// the two agree.
type metricDecl struct {
	name, unit string
}

// endToEndMetrics are defined on every workload (the driver requires
// every run to print every one, never 0). What each means per workload
// is the table in README.md.
var endToEndMetrics = []metricDecl{
	{"setup_s", "s"},
	{"req_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"first_answer_s", "s"},
	{"rss_mb", "MB"},
}

// perLayerMetrics come from the traced run. A layer the workload does
// not reach reports 0 — that is the "predicted flat" of the interaction
// table made visible.
var perLayerMetrics = []metricDecl{
	// End-to-end numbers that are not gated: what p50_ms folds together,
	// the tails (they do not repeat within any bound on a shared 2-core
	// box), and the cold paths by their own names.
	{"e2e.p95_ms", "ms"}, {"e2e.cpu_ms_per_req", "ms"},
	{"e2e.write_p50_ms", "ms"}, {"e2e.write_p95_ms", "ms"},
	{"e2e.read_p50_ms", "ms"}, {"e2e.read_p95_ms", "ms"},
	{"e2e.repairs_p50_ms", "ms"}, {"e2e.discover_p50_ms", "ms"},
	{"e2e.attach_s", "s"}, {"e2e.recover_s", "s"}, {"e2e.standby_sync_s", "s"},
	{"e2e.detect_s", "s"}, {"e2e.discover_s", "s"}, {"e2e.repair_s", "s"},
	{"e2e.fail_ratio", "ratio"},

	{"gen.generate_ms", "ms"}, {"relation.csv_load_ms", "ms"},

	{"core.consistent_ms", "ms"}, {"core.mincover_ms", "ms"},
	{"detect.direct_ms", "ms"}, {"detect.sql_percfd_dnf_ms", "ms"}, {"detect.sql_merged_cnf_ms", "ms"},
	{"detect.violations_found", "count"},
	{"sqlgen.generate_ms", "ms"}, {"sqlmini.exec_qc_ms", "ms"}, {"sqlmini.exec_qv_ms", "ms"},

	{"discovery.discover_ms", "ms"}, {"discovery.attach_ms", "ms"},
	{"discovery.refresh_ms", "ms"}, {"discovery.groups_rescored_per_refresh", "count"},

	{"repair.batch_ms", "ms"}, {"repair.cells_changed", "count"}, {"repair.attach_ms", "ms"},
	{"repair.refresh_ms", "ms"}, {"repair.replanned_per_refresh", "count"},

	{"incremental.apply_us", "us"}, {"incremental.validate_us", "us"},
	{"incremental.wal_append_us", "us"}, {"incremental.shard_apply_us", "us"},
	{"incremental.gc_wait_us", "us"}, {"incremental.ops_per_batch", "count"},
	{"incremental.rejected_total", "count"}, {"incremental.violation_flips_per_op", "ratio"},
	{"incremental.view_rebuilds_per_1k_reads", "count"},
	{"incremental.snapshot_ms", "ms"}, {"incremental.snapshots_total", "count"},
	{"incremental.recover_ms", "ms"}, {"incremental.acked_lost_on_kill", "count"},
	{"incremental.bytes_per_tuple", "B"},

	{"wal.append_us", "us"}, {"wal.bytes_per_op", "B"}, {"wal.records_total", "count"},
	{"wal.segment_roll_ms", "ms"}, {"wal.fsync_us", "us"},

	{"cfdserve.http_apply_us", "us"}, {"cfdserve.http_read_us", "us"},
	{"cfdserve.http_repairs_us", "us"}, {"cfdserve.http_overhead_us", "us"},
	{"cfdserve.errors_total", "count"},

	{"cfdrouter.http_apply_us", "us"}, {"cfdrouter.http_read_us", "us"},
	{"cluster.route_us", "us"}, {"cluster.shard_skew", "ratio"},
	{"cluster.groups_per_batch", "count"}, {"cluster.shard_failures_total", "count"},
	{"cluster.read_us", "us"}, {"cluster.replica_apply_us", "us"},
	{"cluster.replica_lag_bytes_max", "B"}, {"cluster.ring_owner_ns", "ns"},

	{"client.overhead_us", "us"}, {"client.encode_us", "us"}, {"client.late_p99_us", "us"},
	{"obs.scrape_ms", "ms"}, {"obs.series_total", "count"},
	{"trace.explained_ratio", "ratio"}, {"trace.overhead_ratio", "ratio"},
}
