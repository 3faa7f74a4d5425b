package repro

import (
	"repro/internal/discovery"
	"repro/internal/incremental"
)

// CFD discovery (the Section 7 future-work item). There is one mining
// code path and it is streaming: a CFDMiner rides the Monitor's
// group-statistics substrate and re-scores only the groups each change
// touched; DiscoverCFDs is its bulk entry (seed a throwaway monitor,
// read the initial mined set).
type (
	// DiscoveryConfig tunes the miner (MaxLHS, MinSupport, MinConfidence,
	// MaxPatterns). Invalid tunables (MinConfidence > 1, negative
	// MaxPatterns) are rejected with an error.
	DiscoveryConfig = discovery.Config
	// DiscoveredCFD is one mined constraint with support metadata.
	DiscoveredCFD = discovery.Discovered
	// CFDMiner is a streaming miner attached to a live Monitor (see
	// WatchDiscovery): Refresh re-scores what changed and reports the
	// mined set's appear/update/retire deltas; Mined materializes the
	// current set.
	CFDMiner = discovery.Miner
	// MinedChange is one CFDMiner.Refresh outcome: an embedded FD that
	// appeared in, changed within, or retired from the mined set.
	MinedChange = discovery.MinedChange
	// MinedChangeKind discriminates MinedChange outcomes.
	MinedChangeKind = discovery.MinedChangeKind

	// MonitorAttrPair is one tracked pair of the Monitor's generalized
	// group-statistics substrate (Monitor.TrackGroups) — the layer the
	// miner is built on, usable directly for custom aggregations.
	MonitorAttrPair = incremental.AttrPair
	// MonitorGroupStats is a live group-statistics subscription.
	MonitorGroupStats = incremental.GroupStats
	// MonitorGroupDelta is one drained group-delta event.
	MonitorGroupDelta = incremental.GroupDelta
)

// MinedChange kinds (see MinedChange.Kind).
const (
	MinedAppeared = discovery.MinedAppeared
	MinedUpdated  = discovery.MinedUpdated
	MinedRetired  = discovery.MinedRetired
)

// DiscoverCFDs mines CFDs (global FDs and constant patterns) that hold on
// the instance.
func DiscoverCFDs(rel *Relation, cfg DiscoveryConfig) ([]DiscoveredCFD, error) {
	return discovery.Discover(rel, cfg)
}

// WatchDiscovery attaches a streaming CFD miner to a live monitor: the
// current instance is scored once, and every subsequent ChangeSet's
// group-deltas re-score only the X-groups it touched — call Refresh
// after applying changes to fold them in and learn what appeared or
// retired, Mined for the current set. Detach with CFDMiner.Close. The
// cfdserve GET /v1/discover endpoint is this path as a service.
func WatchDiscovery(m *Monitor, cfg DiscoveryConfig) (*CFDMiner, error) {
	return discovery.NewMiner(m, cfg)
}
