package repro

import (
	"repro/internal/discovery"
	"repro/internal/incremental"
)

// CFD discovery (the Section 7 future-work item). Discovery is one
// on-demand computation over an instance: DiscoverCFDs runs a level-wise
// stripped-partition search over the relation it is given. To mine a
// live monitor, pass it Monitor.Snapshot(). The cfdserve GET
// /v1/discover endpoint runs the same kernel without materializing a
// tuple: on the monitor's own value IDs, copied out column by column
// (Monitor.Columns), with the same answer.
type (
	// DiscoveryConfig tunes discovery (MaxLHS, MinSupport, MinConfidence,
	// MaxPatterns). Invalid tunables (MinConfidence > 1, negative
	// MaxPatterns) are rejected with an error.
	DiscoveryConfig = discovery.Config
	// DiscoveredCFD is one mined constraint with support metadata.
	DiscoveredCFD = discovery.Discovered

	// MonitorGroupStats is a live group-statistics subscription over
	// the Monitor's Σ (Monitor.TrackGroups): every CFD's LHS groups with
	// their support and RHS value distributions.
	MonitorGroupStats = incremental.GroupStats
	// MonitorGroupDelta is one drained group-delta event.
	MonitorGroupDelta = incremental.GroupDelta
)

// DiscoverCFDs mines CFDs (global FDs and constant patterns) that hold on
// the instance.
func DiscoverCFDs(rel *Relation, cfg DiscoveryConfig) ([]DiscoveredCFD, error) {
	return discovery.Discover(rel, cfg)
}
