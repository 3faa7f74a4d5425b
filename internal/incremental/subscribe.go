package incremental

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/relation"
)

// This file is the consumer surface of the one apply step (applyLocked):
// every consumer sits on one list, Monitor.consumers, and is folded after
// every applied request, in apply order, under the writer lock. The
// violation view (view.go) is consumers[0] and never detaches; a DeltaSub
// (below) attaches under the writer lock with a backfill of the current
// state, so an attach neither misses nor double-counts a concurrent
// write, and detach removes it. A GroupStats (stats.go) is no consumer:
// it reads Σ's own groups, which the apply marks for it directly, so it
// needs neither a fold nor a backfill.
//
// A DeltaSub is a coalesced set of the tuple keys a stretch of applied
// batches changed on an attribute of Σ — O(Δ) per batch, one mark per
// key between drains. The streaming repair Suggester in internal/repair
// is the canonical subscriber: it re-plans the constant-violation
// suggestions of exactly the keys a batch touched instead of
// re-detecting the instance (its variable-violation suggestions follow
// its GroupStats instead).

// consumer is one follower of the apply step: fold sees one applied
// request's ops, their recorded tuple changes (nil while the view is the
// only consumer) and its normalized delta.
type consumer interface {
	fold(ops []Op, moved []tupleChange, d *Delta)
}

// attach adds c to the consumer list after backfill has brought it up to
// the current state, both under the writer lock, so no write falls
// between the two.
func (m *Monitor) attach(c consumer, backfill func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	backfill()
	m.consumers = append(m.consumers, c)
}

// detach removes c from the consumer list under the writer lock;
// unknown consumers are ignored.
func (m *Monitor) detach(c consumer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.consumers = slices.DeleteFunc(m.consumers, func(o consumer) bool { return o == c })
}

// DeltaSub is one live touched-key subscription over a Monitor, created
// by TrackDeltas: the coalesced set of tuple keys whose stored tuple an
// applied op changed on an attribute some CFD mentions — inserted,
// deleted, or updated on an attribute of Σ. Folding happens under the
// writer lock after every apply; Drain is safe to call concurrently
// with mutations.
type DeltaSub struct {
	mu sync.Mutex
	// attrCFDs is the monitor's attribute → mentioning-CFDs map.
	attrCFDs [][]int
	keys     map[int64]struct{}
}

// fold marks every applied op whose stored tuple changed on an attribute
// of Σ. Called under the writer lock; takes the sub's own mutex so Drain
// can run concurrently.
func (s *DeltaSub) fold(ops []Op, moved []tupleChange, _ *Delta) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, c := range moved {
		if ops[i].Kind == OpUpdate {
			if ai := ops[i].ai; len(s.attrCFDs[ai]) == 0 || c.before[ai] == c.after[ai] {
				continue
			}
		}
		s.keys[ops[i].Key] = struct{}{}
	}
}

// Drain returns the keys touched since the previous drain, in no
// particular order, and resets the set. A key listed here may be gone or
// no longer violating: the subscriber re-reads the authoritative state.
// A nil result means nothing was touched — the cheap poll path.
func (s *DeltaSub) Drain() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.keys) == 0 {
		return nil
	}
	out := make([]int64, 0, len(s.keys))
	for k := range s.keys {
		out = append(out, k)
	}
	clear(s.keys)
	return out
}

// TrackDeltas attaches a touched-key subscription under the writer lock:
// every key that currently violates a constant pattern is pre-marked (so
// the first Drain hands the subscriber the complete initial set), and
// every subsequent applied op marks the key it changed. Like group
// statistics, subscriptions are memory-only and do not survive a
// restart. Detach with UntrackDeltas.
func (m *Monitor) TrackDeltas() *DeltaSub {
	s := &DeltaSub{attrCFDs: m.attrCFDs, keys: make(map[int64]struct{})}
	// The writer lock keeps the stores still, so they are read without
	// the store lock; s is not yet shared.
	m.attach(s, func() {
		for _, cs := range m.cfds {
			for k := range cs.consts {
				s.keys[k] = struct{}{}
			}
		}
	})
	return s
}

// UntrackDeltas detaches a subscription; its accumulated marks stay
// drainable but no longer follow mutations. Unknown handles are ignored.
func (m *Monitor) UntrackDeltas(s *DeltaSub) { m.detach(s) }

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

// ConstViolations returns the indexes of the CFDs whose constant patterns
// the tuple with the given key currently violates, in Σ order (nil for
// none) — a point probe against the constant-violation stores under one
// shared hold of the store lock, no view materialization.
func (m *Monitor) ConstViolations(key int64) []int {
	var out []int
	m.storeMu.RLock()
	defer m.storeMu.RUnlock()
	for ci, cs := range m.cfds {
		if cs.consts[key] {
			out = append(out, ci)
		}
	}
	return out
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
