GO ?= go

.PHONY: test race race-props metrics-smoke cli-smoke bench-smoke docs-check

test:
	$(GO) build ./... && $(GO) test ./...

race:
	$(GO) test -race ./internal/obs/ ./internal/core/ ./internal/relation/ ./internal/incremental/ ./internal/wal/ ./internal/cluster/ ./internal/httpapi/ ./internal/detect/ ./internal/repair/ ./internal/discovery/ ./internal/node/ ./cmd/cfdserve/ ./cmd/cfdrouter/

# End-to-end observability check: boot a durable cfdserve, push batches
# through /v1/apply, scrape GET /v1/metrics and assert the expected
# series and family count, then boot a follower and assert its lag
# gauge scrapes.
# CFD_SOAK scales the applied load (nightly runs it at 8).
metrics-smoke:
	sh scripts/metrics_smoke.sh

# The batch CLIs as processes: build cfdgen, cfddetect and cfdrepair,
# generate 2 000 rows and assert main's exit codes (1 dirty under every
# strategy, 0 after cfdrepair, 2 on a refused flag).
cli-smoke:
	GO=$(GO) sh scripts/cli_smoke.sh

# The batch-path benchmarks of the root bench_test.go (discovery and
# the merged CNF detection pair included), the live Suggester's attach, the monitor's bulk load and
# one GET /v1/discover through a node's handler, one iteration each:
# go test ./... never runs a benchmark, so one that panics or stops
# certifying its result would otherwise go unnoticed.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkStrategyDirect$$|BenchmarkRepair$$|BenchmarkDiscovery$$|BenchmarkSuggesterAttach$$|BenchmarkMonitorLoad100K$$|BenchmarkDiscoverEndpoint$$|BenchmarkMergedVsPerCFDMergedCNF$$' -benchtime 1x -benchmem .

# The property tests under the race detector, twice each so goroutine
# schedules vary: one row per package and -run pattern, each row
# 'PACKAGE=PATTERN'. Every '|'-alternative of a pattern must name at
# least one test (go test -list), so a deleted or renamed test fails the
# gate instead of dropping out of it. CFD_SOAK scales the failover,
# cluster and read-path rounds (nightly).
#
# The batch pipeline: the randomized batched-stream oracle, the
# mid-batch kill/recover test and the commit-window tests (one record per
# window with per-writer outcomes; consumer attach with backfill under
# concurrent writers).
RACE_PROPS += './internal/incremental/=TestRandomBatchesMatchOracle|TestCrashRecoveryBatchAllOrNothing|TestApplyBatch|TestCommitWindow'
# Discovery: the stripped-partition kernel against a brute-force GROUP BY
# per candidate on random instances; the node's streamed GET
# /v1/discover against a snapshot mined and encoded whole, on random
# churned instances and beside concurrent writers whose ChangeSets leave
# the state as they found it.
RACE_PROPS += './internal/discovery/=TestDiscoverMatchesBruteForce'
RACE_PROPS += './internal/node/=TestDiscoverAnswerMatchesSnapshot|TestDiscoverBesideWriters'
# The group statistics over Σ's own groups: drains, Stat and Count
# against a brute-force recount of the snapshot (a Σ whose CFDs share an
# LHS included, writes landing mid-drain), concurrent Stat readers of
# one group, Stat and Count readers beside writers and a drainer, and
# writes landing between a drain's chunks.
RACE_PROPS += './internal/incremental/=TestGroupStatsMatchRecount|TestStatConcurrentReaders|TestSharedStatConcurrentReaders|TestDrainChunksSeeLaterWrites'
# The group store: per-attribute RHS distributions against the batch
# oracle and the crash-recovery check, the v4 snapshot round trip and
# the fold of older (v2/v3) images on recovery.
RACE_PROPS += './internal/incremental/=TestRandomStreamsMatchOracle|TestCrashRecoveryMatchesBatchDetector|TestSnapshotRoundTrip|TestOlderSnapshotsFoldOnRecovery'
# The bulk build: a Load, whose per-CFD folds run concurrently, against
# a twin seeded by one Apply, before and through a random op stream.
RACE_PROPS += './internal/incremental/=TestBulkLoadMatchesApply'
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
# The router's parallel read fan-out: totals, point reads routed to the
# owner (a lagging standby's 404 retried on the primary), one-row total
# pages and shard connection reuse.
RACE_PROPS += './cmd/cfdrouter/=TestDaemonReadFanout|TestRoutedPointReadGoesToOwner|TestRoutedPointReadFallsBackToPrimary|TestRoutedTotalReadsOneRowPages|TestRouterReusesShardConnections|TestRoutedRepairsPassThrough'
# Live repair: randomized dirt must converge to I' |= Sigma through the
# suggest-plan-apply loop, the live suggester must equal a fresh attach
# after every refresh (over a Σ whose CFDs share an LHS too) and keep
# its confidences in [0, 1] under concurrent writers, and concurrent
# apply-vs-refresh; the node's repairs endpoint keeps its trust across
# a discover call.
RACE_PROPS += './internal/repair/=TestSuggestConvergesRandomDirt|TestSuggesterConcurrentRefresh|TestSuggesterMatchesFreshAttach|TestSuggesterSharedLHSMatchesFreshAttach|TestSuggesterConfidenceInRange|TestSuggesterReplansMovedConstViolation|TestSuggesterRelaxesLowTrustCFD'
RACE_PROPS += './internal/node/=TestRepairsTrustSurvivesDiscover'

race-props:
	@set -e; for row in $(RACE_PROPS); do \
		pkg=$${row%%=*}; run=$${row#*=}; \
		list=$$($(GO) test -list "$$run" "$$pkg" | grep -E '^(Test|Example|Fuzz)' || true); \
		for alt in $$(echo "$$run" | tr '|' ' '); do \
			if ! echo "$$list" | grep -qE -- "$$alt"; then \
				echo "race-props: $$pkg -run '$$alt' matches no test" >&2; exit 1; \
			fi; \
		done; \
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
