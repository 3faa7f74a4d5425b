GO ?= go

.PHONY: test race race-props metrics-smoke bench-smoke docs-check

test:
	$(GO) build ./... && $(GO) test ./...

race:
	$(GO) test -race ./internal/obs/ ./internal/core/ ./internal/relation/ ./internal/incremental/ ./internal/wal/ ./internal/cluster/ ./internal/httpapi/ ./internal/detect/ ./cmd/cfdserve/ ./cmd/cfdrouter/

# End-to-end observability check: boot a durable cfdserve, push batches
# through /v1/apply, scrape GET /v1/metrics and assert the expected
# series and family count, then boot a follower and assert its lag
# gauge scrapes.
# CFD_SOAK scales the applied load (nightly runs it at 8).
metrics-smoke:
	sh scripts/metrics_smoke.sh

# The batch-path benchmarks of the root bench_test.go, one iteration
# each: go test ./... never runs a benchmark, so one that panics or
# stops certifying its result would otherwise go unnoticed.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkStrategyDirect$$|BenchmarkRepair$$' -benchtime 1x -benchmem .

# The property tests under the race detector, twice each so goroutine
# schedules vary: one row per package and -run pattern, each row
# 'PACKAGE=PATTERN'. CFD_SOAK scales the failover, cluster and read-path
# rounds (nightly).
#
# The batch pipeline: the randomized batched-stream oracle, the
# mid-batch kill/recover test and the commit-window tests (one record per
# window with per-writer outcomes; consumer attach with backfill under
# concurrent writers).
RACE_PROPS += './internal/incremental/=TestRandomBatchesMatchOracle|TestCrashRecoveryBatchAllOrNothing|TestApplyBatch|TestCommitWindow'
# Streaming discovery: the randomized miner-vs-Discover oracle, the
# concurrent-writers refresh loop and the attached miner's heap budget
# per tuple, then the shared X-partitions against a fresh per-pair
# recount and concurrent Stat readers of one group.
RACE_PROPS += './internal/discovery/=TestMinerMatchesDiscoverOracle|TestMinerConcurrentRefresh|TestMinerHeapPerTuple'
RACE_PROPS += './internal/incremental/=TestSharedPartitionsMatchRecount|TestStatConcurrentReaders'
# The group store: per-attribute RHS distributions against the batch
# oracle and the crash-recovery check, the v4 snapshot round trip and
# the fold of older (v2/v3) images on recovery.
RACE_PROPS += './internal/incremental/=TestRandomStreamsMatchOracle|TestCrashRecoveryMatchesBatchDetector|TestSnapshotRoundTrip|TestOlderSnapshotsFoldOnRecovery'
# Failover: kill the primary at a random record boundary, promote the
# follower and cross-check against the single-node oracle, plus the
# concurrent-stream follower test.
RACE_PROPS += './internal/incremental/=TestFailoverPromotedMatchesOracle|TestFollowerConcurrentStream'
# Cluster: the cluster-vs-single-node oracle under random kills,
# partitions and promotions (a fenced deposed primary must refuse
# writes), plus the router's stale-epoch retry.
RACE_PROPS += './internal/cluster/=TestClusterMatchesOracleUnderFailover|TestRouterRetriesStaleEpoch'
# Read path: the randomized view-vs-scan oracle (flip-flop batches
# included), concurrent readers against writers on the lock-free view,
# point reads and view rebuilds that must see whole commit windows, and
# the router's standby read fan-out with its staleness guard.
RACE_PROPS += './internal/incremental/=TestViewMatchesScanUnderRandomStreams|TestViewConcurrentReadersWriters|TestViolationsForSeesWholeWindows|TestViewSeesWholeWindows'
RACE_PROPS += './internal/cluster/=TestPickRead'
# Live repair: randomized dirt must converge to I' |= Sigma through the
# suggest-plan-apply loop, the live suggester must equal a fresh attach
# after every refresh and keep its confidences in [0, 1] under
# concurrent writers, and concurrent apply-vs-refresh; the node's
# repairs endpoint keeps its trust across a discover call.
RACE_PROPS += './internal/repair/=TestSuggestConvergesRandomDirt|TestSuggesterConcurrentRefresh|TestSuggesterMatchesFreshAttach|TestSuggesterConfidenceInRange|TestSuggesterReplansMovedConstViolation|TestSuggesterRelaxesLowTrustCFD'
RACE_PROPS += './internal/node/=TestRepairsTrustSurvivesDiscover'

race-props:
	@set -e; for row in $(RACE_PROPS); do \
		pkg=$${row%%=*}; run=$${row#*=}; \
		echo "race-props: $$pkg -run '$$run'"; \
		$(GO) test -race -count 2 -run "$$run" "$$pkg"; \
	done

# Documentation gate: vet, every *.md relative link and anchor resolves,
# and the godoc examples are gofmt-clean. ci.yml's docs job runs this.
docs-check:
	$(GO) vet ./...
	sh scripts/check_links.sh
	@out=$$(gofmt -l example_test.go doc.go); \
	if [ -n "$$out" ]; then echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi
