GO ?= go

# The CI bench-gate workload: small, fixed, a few minutes. One
# experiment per layer — batch detection (9a), strategy comparison
# (merge), the durable serving path (e9), batched ingest (e10),
# streaming discovery (e11), WAL shipping (e12), write-path raw
# speed (e13: commit-window coalescing + tuple-store memory) and
# cluster write scaling (e14: routed fsynced writes across shard
# groups), the read path (e15: violation-view vs scan reads,
# point queries, routed standby reads) and live repair (e16:
# suggestion re-plan after a ChangeSet vs full batch repair) — at
# -quick sizes, best-of-5 so a single scheduler hiccup does not fail
# the gate. ci.yml and the checked-in baseline both go through these
# targets, so the flags live only here.
BENCH_WORKLOAD = -quick -repeat 5 -only 9a,merge,e9,e10,e11,e12,e13,e14,e15,e16
# Relative tolerance plus an absolute ns/op floor: only millisecond-scale
# drift can fail the gate; µs-scale series (single append, fsync) stay
# informational because 30% of a microsecond is scheduler jitter.
BENCH_TOLERANCE = 0.30
BENCH_FLOOR_NS = 100000

.PHONY: test race race-batch race-discovery race-failover race-cluster race-readpath race-repair metrics-smoke bench-current bench-baseline bench-batch bench-discovery bench-replication bench-groupcommit bench-cluster bench-readpath bench-repair bench-check docs-check

test:
	$(GO) build ./... && $(GO) test ./...

race:
	$(GO) test -race ./internal/obs/ ./internal/relation/ ./internal/incremental/ ./internal/wal/ ./internal/cluster/ ./internal/httpapi/ ./internal/detect/ ./cmd/cfdserve/ ./cmd/cfdrouter/

# End-to-end observability check: boot a durable cfdserve, push batches
# through /v1/apply, scrape GET /v1/metrics and assert the expected
# series and family count, then boot a follower and assert its lag
# gauge scrapes.
# CFD_SOAK scales the applied load (nightly runs it at 8).
metrics-smoke:
	sh scripts/metrics_smoke.sh

# The batch pipeline's property tests under the race detector, twice, so
# goroutine schedules vary: the randomized batched-stream oracle test,
# the mid-batch kill/recover test, and the commit-window tests (one
# record per window with per-writer outcomes; consumer attach with
# backfill under concurrent writers).
race-batch:
	$(GO) test -race -count 2 -run 'TestRandomBatchesMatchOracle|TestCrashRecoveryBatchAllOrNothing|TestApplyBatch|TestCommitWindow' ./internal/incremental/

# The streaming-discovery property tests under the race detector, twice:
# the randomized miner-vs-Discover oracle equivalence, the
# concurrent-writers refresh loop, confidence in [0, 1] under writers,
# the attached miner's heap budget per tuple, and the shared
# X-partitions against a fresh per-pair recount.
race-discovery:
	$(GO) test -race -count 2 -run 'TestMinerMatchesDiscoverOracle|TestMinerConcurrentRefresh|TestMinerConfidenceInRange|TestMinerHeapPerTuple|TestSharedPartitionsMatchRecount' ./internal/discovery/ ./internal/incremental/

# The failover property test under the race detector, twice: kill the
# primary at a random record boundary, promote the follower, cross-check
# the promoted state against the single-node oracle — plus the
# concurrent-stream follower test. CFD_SOAK scales the rounds (nightly).
race-failover:
	$(GO) test -race -count 2 -run 'TestFailoverPromotedMatchesOracle|TestFollowerConcurrentStream' ./internal/incremental/

# The cluster property tests under the race detector, twice: the
# cluster-vs-single-node oracle under random kills/partitions/promotions
# (a fenced deposed primary must refuse writes), plus the router's
# stale-epoch retry. CFD_SOAK scales the rounds (nightly).
race-cluster:
	$(GO) test -race -count 2 -run 'TestClusterMatchesOracleUnderFailover|TestRouterRetriesStaleEpoch' ./internal/cluster/

# The read-path property tests under the race detector, twice: the
# randomized view-vs-scan oracle (including flip-flop batches), the
# concurrent readers-vs-writers hammer on the lock-free violation view,
# point reads that must see whole commit windows, and the router's
# standby read fan-out with its staleness guard.
race-readpath:
	$(GO) test -race -count 2 -run 'TestViewMatchesScanUnderRandomStreams|TestViewConcurrentReadersWriters|TestViolationsForSeesWholeWindows|TestPickRead' ./internal/incremental/ ./internal/cluster/

# The repair-suggester property tests under the race detector, twice:
# randomized dirt streams must converge to I' |= Sigma through the
# suggest-plan-apply loop and land within the batch Repair oracle's
# cost, plus the concurrent apply-vs-refresh hammer on the live
# suggester.
race-repair:
	$(GO) test -race -count 2 -run 'TestSuggestConvergesRandomDirt|TestSuggesterConcurrentRefresh' ./internal/repair/

# One raw run of the gate workload, for eyeballing.
bench-current:
	$(GO) run ./cmd/cfdbench $(BENCH_WORKLOAD) -json > bench-current.json

# Regenerate the checked-in baseline: two independent runs, min-merged
# per series — the same estimator the gate uses. Timings are
# hardware-relative: run this on the CI runner class (ubuntu-latest)
# when the gate's machines change, or after an intentional perf change,
# and commit the resulting BENCH_baseline.json.
bench-baseline:
	$(GO) run ./cmd/cfdbench $(BENCH_WORKLOAD) -json > bench-run1.json
	$(GO) run ./cmd/cfdbench $(BENCH_WORKLOAD) -json > bench-run2.json
	$(GO) run ./cmd/cfdbenchdiff -current bench-run1.json,bench-run2.json -min-out BENCH_baseline.json
	rm -f bench-run1.json bench-run2.json

# Quick local iteration on the batched-ingest series only (E10): delta
# throughput vs batch size under 1/4/16 writers, plus the fsync
# single-vs-batch headline.
bench-batch:
	$(GO) run ./cmd/cfdbench -quick -only e10

# Quick local iteration on the streaming-discovery series only (E11):
# incremental re-score after a 1K-op ChangeSet vs full re-mine.
bench-discovery:
	$(GO) run ./cmd/cfdbench -quick -only e11

# Quick local iteration on the WAL-shipping series only (E12): follower
# catch-up (local snapshot + tail + ship the gap) vs cold CSV re-seed.
bench-replication:
	$(GO) run ./cmd/cfdbench -quick -only e12

# Quick local iteration on the write-path series only (E13): how the
# always-on commit queue coalesces concurrent single-op fsynced writers
# (1/4/16) against hand-batched ChangeSets, and the value-ID-column vs
# string-tuple memory comparison.
bench-groupcommit:
	$(GO) run ./cmd/cfdbench -quick -only e13

# Quick local iteration on the cluster series only (E14): routed fsynced
# write scaling at 1/2/4 shard groups vs the host's flush envelope.
bench-cluster:
	$(GO) run ./cmd/cfdbench -quick -only e14

# Quick local iteration on the read-path series only (E15): violation
# view vs full scan under concurrent readers, point-query latency, and
# routed reads over standbys at 1/2/4 groups.
bench-readpath:
	$(GO) run ./cmd/cfdbench -quick -only e15

# Quick local iteration on the live-repair series only (E16): cost-ranked
# suggestion re-plan after a 1K-op ChangeSet vs one full batch repair.
bench-repair:
	$(GO) run ./cmd/cfdbench -quick -only e16

# Documentation gate: vet, every *.md relative link and anchor resolves,
# and the godoc examples are gofmt-clean. ci.yml's docs job runs this.
docs-check:
	$(GO) vet ./...
	sh scripts/check_links.sh
	@out=$$(gofmt -l example_test.go doc.go); \
	if [ -n "$$out" ]; then echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi

# The gate itself: rerun the workload (min of 2 runs, a 3rd on
# failure), fail on a >30% ns/op regression of at least 100µs absolute,
# or on a vanished series. Prints a markdown delta table.
bench-check:
	BENCH_WORKLOAD="$(BENCH_WORKLOAD)" BENCH_TOLERANCE=$(BENCH_TOLERANCE) \
	BENCH_FLOOR_NS=$(BENCH_FLOOR_NS) sh scripts/bench_gate.sh
