package incremental

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/relation"
)

// This file generalizes the group index of index.go beyond CFD tableaux:
// a GroupStats subscription maintains, for arbitrary attribute pairs
// (X → A), the live X-groups of the monitored instance — support (member
// count) and the full A-value distribution. It is a consumer of the one
// apply step: while it is attached, the apply records each op's stored
// tuple before and after, and the subscription folds those changes under
// the writer lock, right after the apply (applyLocked). Each mutation
// leaves a coalesced group-delta behind: group created or destroyed,
// support ±, distinct-Y ± all surface as one dirty mark per (pair, group)
// that Drain turns into GroupDelta events. The streaming
// CFD miner in internal/discovery is the canonical subscriber: it
// re-scores exactly the groups a batch touched instead of re-mining the
// instance.
//
// Like the violation indexes, the statistics speak value IDs internally:
// groups are keyed by the packed-ID X-projection and distributions count
// IDs (4 bytes per entry key), with strings materialized through the
// monitor's interner only when a delta or Stat crosses to the caller.

// AttrPair is one tracked statistics pair: the X-groups of the
// projection on X, each with the distribution of its members' A-values.
type AttrPair struct {
	// X is the grouping attribute list (the candidate LHS).
	X []string
	// A is the distributed attribute (the candidate RHS).
	A string
}

// GroupDelta reports that one tracked pair's X-group changed since the
// previous Drain: it was created, gained or lost members (support ±),
// or its A-value distribution shifted (distinct ±). Deltas are
// coalesced per group between drains — a 1000-op batch hitting one
// group yields one delta — and carry the group's state as of the drain.
type GroupDelta struct {
	// Pair indexes the pair within the subscription's TrackGroups order.
	Pair int
	// XKey is the group's identity: an opaque encoding of the
	// X-projection, stable for the life of the subscription and usable
	// with Stat and KeyOf.
	XKey string
	// X is the materialized X-projection; nil when the group was
	// destroyed.
	X []relation.Value
	// Support is the group's member count; 0 reports the group was
	// destroyed.
	Support int
	// Distinct is the number of distinct A-values over the members.
	Distinct int
	// Top and TopCount are the most frequent A-value and its count,
	// filled only when Distinct == 1 (where they cost nothing to read).
	// For mixed groups use Stat, which scans the distribution.
	Top      relation.Value
	TopCount int
}

// GroupStat is a point-in-time view of one X-group's statistics.
type GroupStat struct {
	// X is the materialized X-projection.
	X []relation.Value
	// Support is the group's member count.
	Support int
	// Distinct is the number of distinct A-values over the members.
	Distinct int
	// Top is the most frequent A-value, ties broken toward the smallest
	// value; TopCount is its count.
	Top      relation.Value
	TopCount int
}

// statGroup is the live statistics of one X-group under one tracked
// pair. The overwhelmingly common case — a group whose members agree on
// A — stays allocation-light: the first distinct A-value ID and its
// count live inline and the spill map exists only once a second
// distinct value appears. Invariant: a value is tracked either in the
// inline slot or in rest, never both (the inline slot is matched first
// on every add, so its value never enters rest).
type statGroup struct {
	// key is the stored map key (packed X-projection IDs), kept so a
	// destroyed group can still name itself in its final delta.
	key string
	// x is the X-projection as value IDs (owned by the group, immutable).
	x []uint32
	// size is the member count.
	size int
	// dirty marks membership in the pair's dirty list — a repeat mark
	// is one branch, not a map operation (the fold hot path's dominant
	// cost in profiles).
	dirty bool
	// v0/c0 are the inline first distinct A-value ID and its count;
	// c0 == 0 marks the slot dead (its value fully removed). ID 0 is a
	// valid value, so c0 — never v0 — is what encodes slot liveness.
	v0 uint32
	c0 int
	// rest holds every other distinct A-value ID's count; nil until
	// needed.
	rest map[uint32]int
}

func (g *statGroup) distinct() int {
	n := len(g.rest)
	if g.c0 > 0 {
		n++
	}
	return n
}

func (g *statGroup) add(v uint32) {
	g.size++
	if v == g.v0 && (g.c0 > 0 || len(g.rest) == 0) {
		g.v0, g.c0 = v, g.c0+1
		return
	}
	if g.c0 == 0 && len(g.rest) == 0 {
		g.v0, g.c0 = v, 1
		return
	}
	if c, ok := g.rest[v]; ok {
		g.rest[v] = c + 1
		return
	}
	if g.rest == nil {
		g.rest = make(map[uint32]int, 2)
	}
	g.rest[v] = 1
}

func (g *statGroup) remove(v uint32) {
	g.size--
	if v == g.v0 && g.c0 > 0 {
		g.c0--
		return
	}
	if c := g.rest[v]; c > 1 {
		g.rest[v] = c - 1
	} else {
		delete(g.rest, v)
	}
}

// top returns the most frequent A-value ID and its count, ties broken
// toward the smallest VALUE (not the smallest ID — IDs are assigned by
// interning order, so comparing them would make the winner depend on
// arrival order; the miner's pattern selection needs the value-based
// rule for determinism). O(distinct), with string comparisons only on
// count ties.
func (g *statGroup) top(in *relation.Interner) (best uint32, n int) {
	if g.c0 > 0 {
		best, n = g.v0, g.c0
	}
	for v, c := range g.rest {
		if c > n || (c == n && in.ByID(v) < in.ByID(best)) {
			best, n = v, c
		}
	}
	return best, n
}

// pairTrack is the live group store of one tracked pair: the groups
// keyed by packed X-projection IDs, plus the dirty list — the coalesced
// group-delta log the subscriber drains. A destroyed group leaves the
// map but stays on the list (size 0) until drained.
type pairTrack struct {
	pair   AttrPair
	xIdx   []int
	aIdx   int
	groups map[string]*statGroup
	dirty  []*statGroup
}

// GroupStats is one live group-statistics subscription over a Monitor,
// created by TrackGroups. All methods are safe for concurrent use; mu
// orders Drain, Stat and Count against the fold, so each observes the
// statistics between two applied requests.
type GroupStats struct {
	// in is the monitor's value pool; IDs in the index resolve through
	// it when deltas and stats cross to the caller.
	in    *relation.Interner
	mu    sync.RWMutex
	pairs []pairTrack
	// byAttr maps an attribute position to the pairs whose X ∪ {A}
	// mentions it — the only pairs an update of that attribute touches.
	byAttr [][]int32
}

// NumPairs returns the number of tracked pairs, in TrackGroups order.
func (h *GroupStats) NumPairs() int { return len(h.pairs) }

// Pair returns one tracked pair by index.
func (h *GroupStats) Pair(i int) AttrPair { return h.pairs[i].pair }

// KeyOf returns the XKey a group with the given X-projection would
// carry — the bridge from caller-side values to GroupDelta.XKey / Stat
// identities.
func (h *GroupStats) KeyOf(x []relation.Value) string {
	ids := make([]uint32, len(x))
	for i, v := range x {
		ids[i] = h.in.ID(v)
	}
	return string(relation.AppendIDKey(nil, ids))
}

// TrackGroups attaches a group-statistics subscription for the given
// attribute pairs and returns its handle. The current instance is folded
// in under the writer lock — briefly quiescing writers — so the attach
// is atomic against the apply path, and every later apply folds its
// tuple changes in. Every folded group starts dirty, so the first Drain
// hands the subscriber the complete initial state.
//
// The statistics are memory-only: a durable monitor does not journal or
// snapshot them, and a subscription does not survive a restart —
// re-attach after recovery. Close the handle with UntrackGroups.
func (m *Monitor) TrackGroups(pairs []AttrPair) (*GroupStats, error) {
	h := &GroupStats{in: m.vals, byAttr: make([][]int32, m.schema.Len())}
	for pi, p := range pairs {
		xIdx, err := m.schema.Indexes(p.X)
		if err != nil {
			return nil, fmt.Errorf("incremental: tracking pair %d: %w", pi, err)
		}
		aIdx, ok := m.schema.Index(p.A)
		if !ok {
			return nil, fmt.Errorf("incremental: tracking pair %d: schema %q has no attribute %q", pi, m.schema.Name, p.A)
		}
		h.pairs = append(h.pairs, pairTrack{pair: p, xIdx: xIdx, aIdx: aIdx, groups: make(map[string]*statGroup)})
		for _, ai := range append(append([]int(nil), xIdx...), aIdx) {
			h.byAttr[ai] = append(h.byAttr[ai], int32(pi))
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	// The fold is one bounded allocation burst that immediately becomes
	// resident state (groups, projections, distributions) — park the
	// collector for its duration, the discipline recovery applies.
	defer pauseGC()()
	// Fold pair-major: one pair's group map stays cache-hot across the
	// whole pass. The writer lock keeps the store still, so it is read
	// without shard locks; the handle is not published yet, so neither
	// is h.mu needed.
	for pi := range h.pairs {
		for si := range m.tuples {
			for _, t := range m.tuples[si].m {
				h.pairs[pi].add(t)
			}
		}
	}
	m.stats = append(m.stats, h)
	return h, nil
}

// UntrackGroups detaches a subscription; its handle stays readable but
// no longer follows mutations. Unknown handles are ignored.
func (m *Monitor) UntrackGroups(h *GroupStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats = slices.DeleteFunc(m.stats, func(o *GroupStats) bool { return o == h })
}

// fold moves every applied op's old tuple out of, and its new tuple
// into, each tracked pair — in vector order, under the writer lock. An
// update only touches the pairs that mention its attribute, and a
// same-value update none.
func (h *GroupStats) fold(ops []Op, moved []tupleChange) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, c := range moved {
		if ops[i].Kind != OpUpdate {
			for pi := range h.pairs {
				h.pairs[pi].move(c)
			}
		} else if ai := ops[i].ai; c.before[ai] != c.after[ai] {
			for _, pi := range h.byAttr[ai] {
				h.pairs[pi].move(c)
			}
		}
	}
}

func (p *pairTrack) move(c tupleChange) {
	if c.before != nil {
		p.remove(c.before)
	}
	if c.after != nil {
		p.add(c.after)
	}
}

// key packs t's X-projection IDs under the pair into buf.
func (p *pairTrack) key(buf []byte, t idTuple) []byte {
	key := buf[:0]
	for _, j := range p.xIdx {
		key = relation.AppendIDKey(key, t[j:j+1])
	}
	return key
}

// add folds one tuple into its group, creating the group on first sight.
func (p *pairTrack) add(t idTuple) {
	var stack [64]byte
	key := p.key(stack[:], t)
	g, ok := p.groups[string(key)]
	if !ok {
		k := string(key)
		x := make([]uint32, len(p.xIdx))
		for i, j := range p.xIdx {
			x[i] = t[j]
		}
		g = &statGroup{key: k, x: x}
		p.groups[k] = g
	}
	g.add(t[p.aIdx])
	p.markDirty(g)
}

// remove unfolds a departing tuple from its group.
func (p *pairTrack) remove(t idTuple) {
	var stack [64]byte
	g, ok := p.groups[string(p.key(stack[:], t))]
	if !ok {
		return
	}
	g.remove(t[p.aIdx])
	p.markDirty(g)
	if g.size == 0 {
		// The group leaves the store but stays on the dirty list: its
		// final delta (Support 0) is how the subscriber learns it died.
		delete(p.groups, g.key)
	}
}

func (p *pairTrack) markDirty(g *statGroup) {
	if !g.dirty {
		g.dirty = true
		p.dirty = append(p.dirty, g)
	}
}

// Drain appends every group-delta accumulated since the previous drain
// to buf and returns it, clearing the dirty lists. Each delta carries
// its group's state as of the drain.
func (h *GroupStats) Drain(buf []GroupDelta) []GroupDelta {
	h.mu.Lock()
	defer h.mu.Unlock()
	for pi := range h.pairs {
		p := &h.pairs[pi]
		for _, g := range p.dirty {
			g.dirty = false
			d := GroupDelta{Pair: pi, XKey: g.key}
			// A destroyed group (size 0) left the store; its delta
			// reports only the death. A key destroyed and re-created
			// within one window drains as two list entries, old object
			// first, so the subscriber nets out correctly.
			if g.size > 0 {
				d.X = h.in.Materialize(make([]relation.Value, 0, len(g.x)), g.x)
				d.Support, d.Distinct = g.size, g.distinct()
				if d.Distinct == 1 {
					top, n := g.top(h.in)
					d.Top, d.TopCount = h.in.ByID(top), n
				}
			}
			buf = append(buf, d)
		}
		p.dirty = p.dirty[:0]
	}
	return buf
}

// Stat returns the current statistics of one group, including the full
// distribution's top value (an O(distinct) scan — GroupDelta carries
// Top for free only in the single-value case).
func (h *GroupStats) Stat(pair int, xkey string) (GroupStat, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	g, ok := h.pairs[pair].groups[xkey]
	if !ok {
		return GroupStat{}, false
	}
	top, n := g.top(h.in)
	return GroupStat{
		X:        h.in.Materialize(make([]relation.Value, 0, len(g.x)), g.x),
		Support:  g.size,
		Distinct: g.distinct(),
		Top:      h.in.ByID(top),
		TopCount: n,
	}, true
}

// Count returns the number of members of one group whose A-value equals
// v — the distribution probe a repair planner needs when its target
// value is a pattern constant rather than the group majority. Zero when
// the group (or the value) is unknown.
func (h *GroupStats) Count(pair int, xkey string, v relation.Value) int {
	id := h.in.ID(v)
	h.mu.RLock()
	defer h.mu.RUnlock()
	g, ok := h.pairs[pair].groups[xkey]
	if !ok {
		return 0
	}
	if g.c0 > 0 && g.v0 == id {
		return g.c0
	}
	return g.rest[id]
}
