package incremental

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/relation"
)

// This file is the consumer surface of the one apply step (applyLocked):
// every consumer sits on one list, Monitor.consumers, and is folded after
// every applied request, in apply order, under the writer lock. The
// violation view (view.go) is consumers[0] and never detaches; a DeltaSub
// (below) and a GroupStats (stats.go) attach under the writer lock with a
// backfill of the current state, so an attach neither misses nor
// double-counts a concurrent write, and detach removes them.
//
// A DeltaSub is a coalesced log of which live violations a stretch of
// applied batches touched — O(Δ) per batch, one dirty mark per violation
// between drains. The streaming repair Suggester in internal/repair is
// the canonical subscriber: it re-plans exactly the suggestions whose
// violations a batch touched instead of re-detecting the instance.

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

// detach removes c from the consumer list; unknown consumers are ignored.
func (m *Monitor) detach(c consumer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.consumers = slices.DeleteFunc(m.consumers, func(o consumer) bool { return o == c })
}

// TouchedCFD is one CFD's touched violations since the previous Drain:
// constant violations by tuple key, variable violations by the group's
// X-projection. "Touched" means the violation appeared, retired, or
// flip-flopped — the subscriber re-reads the authoritative state to
// learn which; a key listed here may no longer be violating.
type TouchedCFD struct {
	Consts []int64
	Vars   [][]relation.Value
}

// Empty reports whether nothing was touched.
func (t *TouchedCFD) Empty() bool { return len(t.Consts) == 0 && len(t.Vars) == 0 }

// DeltaSub is one live violation-delta subscription over a Monitor,
// created by TrackDeltas. Folding happens under the writer lock after
// every apply; Drain is safe to call concurrently with mutations.
type DeltaSub struct {
	mu   sync.Mutex
	cfds []touchSet
	n    int
}

// touchSet is one CFD's accumulated touch marks.
type touchSet struct {
	consts map[int64]struct{}
	vars   map[string][]relation.Value
}

// fold marks every violation the delta names as touched. Called under
// the writer lock; takes the sub's own mutex so Drain can run
// concurrently.
func (s *DeltaSub) fold(_ []Op, _ []tupleChange, d *Delta) {
	s.mu.Lock()
	for _, c := range d.Added {
		s.mark(c)
	}
	for _, c := range d.Removed {
		s.mark(c)
	}
	s.mu.Unlock()
}

func (s *DeltaSub) mark(c Change) {
	t := &s.cfds[c.CFD]
	if c.Kind == core.ConstViolation {
		if _, ok := t.consts[c.Tuple]; !ok {
			t.consts[c.Tuple] = struct{}{}
			s.n++
		}
		return
	}
	k := relation.EncodeKey(c.Key)
	if _, ok := t.vars[k]; !ok {
		// Delta keys are immutable (the view shares them too), so
		// retaining the slice is safe.
		t.vars[k] = c.Key
		s.n++
	}
}

// markAll marks every currently-live violation of m as touched — the
// backfill at attach time, read from the violation stores. The caller
// holds the writer lock, so the stores are still and s is not yet shared.
func (s *DeltaSub) markAll(m *Monitor) {
	for ci, cs := range m.cfds {
		for k := range cs.consts {
			s.mark(Change{CFD: ci, Kind: core.ConstViolation, Tuple: k})
		}
		for _, xs := range cs.vgroups {
			s.mark(Change{CFD: ci, Kind: core.VariableViolation, Key: xs})
		}
	}
}

// Drain returns the violations touched since the previous drain, one
// entry per monitored CFD (positionally aligned with Σ), and resets the
// marks. A nil result means nothing was touched — the cheap poll path.
func (s *DeltaSub) Drain() []TouchedCFD {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return nil
	}
	out := make([]TouchedCFD, len(s.cfds))
	for ci := range s.cfds {
		t := &s.cfds[ci]
		if len(t.consts) > 0 {
			out[ci].Consts = make([]int64, 0, len(t.consts))
			for k := range t.consts {
				out[ci].Consts = append(out[ci].Consts, k)
			}
			t.consts = make(map[int64]struct{})
		}
		if len(t.vars) > 0 {
			out[ci].Vars = make([][]relation.Value, 0, len(t.vars))
			for _, xs := range t.vars {
				out[ci].Vars = append(out[ci].Vars, xs)
			}
			t.vars = make(map[string][]relation.Value)
		}
	}
	s.n = 0
	return out
}

// TrackDeltas attaches a violation-delta subscription under the writer
// lock: every violation currently live is pre-marked as touched (so the
// first Drain hands the subscriber the complete initial set), and every
// subsequent applied batch marks the violations its delta names. Like
// group statistics, subscriptions are memory-only and do not survive a
// restart. Detach with UntrackDeltas.
func (m *Monitor) TrackDeltas() *DeltaSub {
	s := &DeltaSub{cfds: make([]touchSet, len(m.cfds))}
	for i := range s.cfds {
		s.cfds[i].consts = make(map[int64]struct{})
		s.cfds[i].vars = make(map[string][]relation.Value)
	}
	m.attach(s, func() { s.markAll(m) })
	return s
}

// UntrackDeltas detaches a subscription; its accumulated marks stay
// drainable but no longer follow mutations. Unknown handles are ignored.
func (m *Monitor) UntrackDeltas(s *DeltaSub) { m.detach(s) }

// MatchingRows returns the tableau rows of CFD ci whose X pattern the
// projection x matches (x ≍ tp[X]), in tableau order — a probe of the
// CFD's static tableau index, which needs no lock. An out-of-range ci or
// a projection of the wrong width matches nothing.
func (m *Monitor) MatchingRows(ci int, x []relation.Value) []int {
	if ci < 0 || ci >= len(m.cfds) || len(x) != len(m.cfds[ci].xIdx) {
		return nil
	}
	ids := make([]uint32, len(x))
	for i, v := range x {
		ids[i] = m.vals.ID(v)
	}
	rows := m.cfds[ci].tab.Match(nil, ids)
	slices.Sort(rows)
	return rows
}

// ViolatingGroup reports whether CFD ci currently has a variable
// violation on the X-group with the given projection — a point probe
// against the authoritative group store under a shared hold of the store
// lock, no view materialization.
func (m *Monitor) ViolatingGroup(ci int, x []relation.Value) bool {
	if ci < 0 || ci >= len(m.cfds) {
		return false
	}
	cs := m.cfds[ci]
	if cs.violations.Load() == 0 || len(x) != len(cs.xIdx) {
		return false
	}
	ids := make([]uint32, len(x))
	for i, v := range x {
		ids[i] = m.vals.ID(v)
	}
	key := relation.AppendIDKey(nil, ids)
	m.storeMu.RLock()
	defer m.storeMu.RUnlock()
	g := cs.groups[string(key)]
	return g != nil && g.violating()
}

// MatchingKeys returns the keys of live tuples whose projection on
// attrs equals x, in ascending key order — the group-membership probe
// the repair engine uses to materialize a group-level suggestion into
// concrete cell edits. A full store scan with integer compares:
// O(|I|), intended for the (rare, human-paced) apply path, not the
// per-batch refresh path.
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
		ids[i] = m.vals.ID(v)
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
