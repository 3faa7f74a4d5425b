package incremental

import (
	"fmt"
	"slices"

	"repro/internal/relation"
)

// This file holds the point probes the repair engine reads the
// authoritative stores through: a CFD's matching tableau rows, one
// group's violation status, and a group's member keys. What an apply
// changed reaches a subscriber through a GroupStats (stats.go), whose
// watch of each CFD the apply marks where it changes the stores: the
// groups it moves and the keys that were, or became, constant-violating.

// MatchingRows returns the tableau rows of CFD ci whose X pattern the
// projection x matches (x ≍ tp[X]), in tableau order — a probe of the
// CFD's static tableau index, which needs no lock. An out-of-range ci or
// a projection of the wrong width matches nothing. The probe does not
// grow the value pool: a value it has never seen equals no pattern
// constant (every constant was pooled when the index was built), so it
// matches only a wildcard.
func (m *Monitor) MatchingRows(ci int, x []relation.Value) []int {
	if ci < 0 || ci >= len(m.cfds) || len(x) != len(m.cfds[ci].xIdx) {
		return nil
	}
	ids := make([]uint32, len(x))
	for i, v := range x {
		id, ok := m.vals.Lookup(v)
		if !ok {
			id = ^uint32(0) // an ID the dense pool never reaches
		}
		ids[i] = id
	}
	rows := m.cfds[ci].tab.Match(nil, ids)
	slices.Sort(rows)
	return rows
}

// ViolatingGroup reports whether CFD ci currently has a variable
// violation on the X-group with the given key — a point probe against
// the authoritative group store under a shared hold of the store lock,
// no view materialization. xkey is the group's packed X-projection IDs
// over the CFD's LHS: the XKey a GroupStats delta of CFD ci carries
// (GroupDelta.XKey, GroupStats.KeyOf).
func (m *Monitor) ViolatingGroup(ci int, xkey string) bool {
	if ci < 0 || ci >= len(m.cfds) {
		return false
	}
	cs := m.cfds[ci]
	if cs.violations.Load() == 0 {
		return false
	}
	m.storeMu.RLock()
	defer m.storeMu.RUnlock()
	g := cs.groups[xkey]
	return g != nil && g.violating()
}

// MatchingKeys returns the keys of live tuples whose projection on
// attrs equals x, in ascending key order — the group-membership probe
// the repair engine uses to materialize a group-level suggestion into
// concrete cell edits. A full store scan with integer compares:
// O(|I|), intended for the (rare, human-paced) apply path, not the
// per-batch refresh path. A value the pool has never seen is held by no
// tuple: the probe answers empty without pooling it.
func (m *Monitor) MatchingKeys(attrs []string, x []relation.Value) ([]int64, error) {
	idx, err := m.schema.Indexes(attrs)
	if err != nil {
		return nil, err
	}
	if len(x) != len(idx) {
		return nil, fmt.Errorf("incremental: MatchingKeys: %d attrs, %d values", len(idx), len(x))
	}
	ids := make([]uint32, len(x))
	for i, v := range x {
		id, ok := m.vals.Lookup(v)
		if !ok {
			return nil, nil
		}
		ids[i] = id
	}
	var out []int64
	m.storeMu.RLock()
	for k, t := range m.tuples {
		match := true
		for i, j := range idx {
			if t[j] != ids[i] {
				match = false
				break
			}
		}
		if match {
			out = append(out, k)
		}
	}
	m.storeMu.RUnlock()
	slices.Sort(out)
	return out, nil
}
