GO ?= go

.PHONY: test race race-batch race-discovery race-failover race-cluster race-readpath race-repair metrics-smoke docs-check

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
# point reads and view rebuilds that must see whole commit windows, and
# the router's standby read fan-out with its staleness guard.
race-readpath:
	$(GO) test -race -count 2 -run 'TestViewMatchesScanUnderRandomStreams|TestViewConcurrentReadersWriters|TestViolationsForSeesWholeWindows|TestViewSeesWholeWindows|TestPickRead' ./internal/incremental/ ./internal/cluster/

# The repair-suggester property tests under the race detector, twice:
# randomized dirt streams must converge to I' |= Sigma through the
# suggest-plan-apply loop and land within the batch Repair oracle's
# cost, plus the concurrent apply-vs-refresh hammer on the live
# suggester.
race-repair:
	$(GO) test -race -count 2 -run 'TestSuggestConvergesRandomDirt|TestSuggesterConcurrentRefresh' ./internal/repair/

# Documentation gate: vet, every *.md relative link and anchor resolves,
# and the godoc examples are gofmt-clean. ci.yml's docs job runs this.
docs-check:
	$(GO) vet ./...
	sh scripts/check_links.sh
	@out=$$(gofmt -l example_test.go doc.go); \
	if [ -n "$$out" ]; then echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi
