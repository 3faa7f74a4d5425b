package incremental

import (
	"fmt"
	"math/bits"
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
// the writer lock, right after the apply (applyLocked). The repair
// Suggester in internal/repair rides it: it folds every delta into each
// CFD's live confidence and re-plans the variable violations of those
// groups whose RHS attribute has, or had, two values. The facade exposes
// it for arbitrary pairs (MonitorAttrPair).
//
// The store is partitioned by X, not by pair (the partition sharing of
// FD discovery): a subscription keeps one partition per distinct X
// attribute list among its pairs, and each X-group of a partition holds
// its key (the packed X-projection IDs) and support once, plus one
// compact distribution per tracked A. A lattice of 210 pairs over 15
// attributes is 15 partitions, not 210 group maps. An insert or
// delete does one map lookup per partition; an update of A moves the
// tuple between groups in the partitions whose X contains A and shifts
// A's distribution within its group in the others. On 20 000 generated
// tax tuples (seed 1, 5 % noise) under those 210 pairs, the 15
// partitions hold the 43 975 distinct X-groups in 41.1 MB of live heap,
// 2.1 KB per tuple; a group map per pair would hold 615 650 groups in
// 129 MB.
//
// The sharing reaches Σ's own groups. A partition whose X is a CFD's
// LHS, and whose tracked A's are all in that CFD's RHS, holds nothing
// the CFD's groups (index.go) do not: each keeps the group's size and
// one distribution per RHS attribute. Such a partition owns no groups.
// The apply marks it before it changes a CFD group (touch), the marks
// record what the group's last drain reported, and the drain reads the
// CFD group itself. Its attach folds no tuple, and the apply folds each
// change once, not once for Σ and again for the subscription. The
// repair Suggester tracks exactly Σ's (LHS, RHS attribute) pairs, so
// all its partitions are shared; a subscription that tracks every other
// attribute under an X keeps its partitions owned.
//
// Dirty marks are per (group, A): a mutation leaves one mark per
// distribution it moved, and Drain turns each into one GroupDelta per
// pair tracking that (X, A). A delta carries the group's state as of
// the drain and as of the pair's previous delta for it, so a subscriber
// can unfold the old contribution arithmetically instead of mirroring
// every group; a destroyed group's final delta still names its
// X-projection, so a subscriber can retire what it keyed by it.
//
// Like the violation indexes, the statistics speak value IDs internally:
// groups are keyed by the packed-ID X-projection and distributions count
// IDs, with strings materialized through the monitor's interner only
// when a delta or Stat crosses to the caller.

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
// or its A-value distribution shifted. Deltas are coalesced per group
// between drains — a 1000-op batch hitting one group yields one delta —
// and carry the group's state as of the drain, read under the same lock
// as one consistent whole.
//
// Which pairs a change reaches is part of the contract (the repair
// Suggester's re-plan rule rests on it): a change in a group's support —
// an insert, a delete, or an update of an attribute in X — yields a
// delta for every pair tracked under that X, and an update of an
// attribute A outside X yields deltas only for A's pairs. A delta
// compares the group with the previous delta's report, not with the
// states between the two: several updates in one window can rewrite A
// in every member, from one value to another, and drain as Distinct 1
// and PrevDistinct 1 at unchanged support.
type GroupDelta struct {
	// Pair indexes the pair within the subscription's TrackGroups order.
	Pair int
	// XKey is the group's identity: an opaque encoding of the
	// X-projection, stable for the life of the subscription and usable
	// with Stat and KeyOf.
	XKey string
	// X is the materialized X-projection, a destroyed group's included.
	// The deltas of one group within a drain share it: treat it as
	// read-only (it may be kept).
	X []relation.Value
	// Support is the group's member count; 0 reports the group was
	// destroyed.
	Support int
	// Distinct is the number of distinct A-values over the members.
	Distinct int
	// Top is the most frequent A-value, ties broken toward the smallest
	// value; TopCount is its count (equal to Support when Distinct == 1).
	Top      relation.Value
	TopCount int
	// PrevSupport, PrevDistinct and PrevTopCount are Support, Distinct
	// and TopCount as the pair's previous delta for this group reported
	// them — all zero on a group's first delta. A group destroyed and
	// re-created within one window drains as two deltas, the death
	// first, and the new group's first delta has zero Prev fields.
	PrevSupport, PrevDistinct, PrevTopCount int
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

// dist counts the values of one attribute over a group's members — the
// counting core of a statGroup, and all a CFD group keeps per RHS
// attribute (index.go). The overwhelmingly common case — members that
// agree on the attribute — is allocation-free: the first distinct value
// ID and its count live inline, and the spill exists only once a second
// distinct value appears. Invariant: a value is tracked either in the
// inline slot or in the spill, never both (the inline slot is matched
// first on every add, so its value never enters the spill). 16 bytes.
type dist struct {
	// v0/c0 are the inline first distinct value ID and its count;
	// c0 == 0 marks the slot dead (its value fully removed). ID 0 is a
	// valid value, so c0 — never v0 — is what encodes slot liveness.
	v0 uint32
	c0 int32
	// rest holds every other distinct value ID's count; nil until a
	// second distinct value first appears, then kept even when it
	// empties, so a group whose disagreeing member is healed and
	// re-injected does not reallocate it.
	rest *spill
}

// statGroup is the A-value distribution of one X-group under one
// tracked A: a dist plus the group's size and the drain bookkeeping. The
// struct is 32 bytes; an X-group carries one per tracked A.
type statGroup struct {
	dist
	// size is the member count (the X-group's support: every member
	// add or remove passes through every distribution of its group).
	size int32
	// prevDistinct/prevTop are the distinct and top counts the last
	// drained delta reported — the Prev fields of the next one.
	prevDistinct, prevTop int32
	// dirty marks a change since the last drain.
	dirty bool
}

// valCount is one spilled A-value ID and its member count.
type valCount struct {
	id uint32
	n  int32
}

// spill holds a mixed distribution's values beyond the inline slot — up
// to the long tail of a near-unique A under a coarse X — in an
// open-addressing table: linear probing over a power-of-two slice, a
// zero count marks a free slot, grown at 3/4 load. A lookup touches one
// cache line and a scan is sequential. A nil spill is empty.
//
// The spill also caches its mode (ties toward the smallest value), so a
// drain need not rescan thousands of values to report the top. inc
// maintains it; a count tie needs a string comparison inc cannot make,
// so inc parks the challenger in tie and the fold settles it at once.
// Removing the mode, or a second tie before the first settled, drops
// the cache, and the next best rescans.
type spill struct {
	slots        []valCount
	n            int32 // live entries
	modeN        int32
	mode, tie    uint32
	modeOK, tied bool
}

// home is v's first probe: Fibonacci hashing onto the table size, so
// runs of dense interner IDs spread out.
func (s *spill) home(v uint32) int {
	return int(v * 0x9e3779b1 >> (33 - bits.Len(uint(len(s.slots)))))
}

// slot returns the index of v's slot, or of the free slot where v would
// go. The table always keeps a free slot, so the probe ends.
func (s *spill) slot(v uint32) int {
	mask := len(s.slots) - 1
	for i := s.home(v); ; i = (i + 1) & mask {
		if e := s.slots[i]; e.n == 0 || e.id == v {
			return i
		}
	}
}

func (s *spill) len() int {
	if s == nil {
		return 0
	}
	return int(s.n)
}

func (s *spill) count(v uint32) int32 {
	if s == nil {
		return 0
	}
	return s.slots[s.slot(v)].n
}

// inc counts n more occurrences of v.
func (s *spill) inc(v uint32, n int32) {
	if s.slots == nil {
		s.slots = make([]valCount, 2)
	}
	i := s.slot(v)
	if s.slots[i].n == 0 {
		if 4*(s.n+1) > 3*int32(len(s.slots)) {
			old := s.slots
			s.slots = make([]valCount, 2*len(old))
			for _, e := range old {
				if e.n > 0 {
					s.slots[s.slot(e.id)] = e
				}
			}
			i = s.slot(v)
		}
		s.slots[i].id = v
		s.n++
	}
	s.slots[i].n += n
	c := s.slots[i].n
	switch {
	case !s.modeOK:
	case v == s.mode:
		s.modeN, s.tied = c, false // a parked challenger no longer ties
	case c > s.modeN:
		s.mode, s.modeN, s.tied = v, c, false
	case c == s.modeN && s.tied:
		s.modeOK = false // a second challenger before the first settled
	case c == s.modeN:
		s.tie, s.tied = v, true
	}
}

// dec removes one occurrence of v.
func (s *spill) dec(v uint32) {
	if s == nil {
		return
	}
	i := s.slot(v)
	if s.slots[i].n == 0 {
		return
	}
	if s.slots[i].n--; s.slots[i].n == 0 {
		s.n--
		s.free(i)
	}
	if v == s.mode {
		s.modeOK = false
	} else if v == s.tie {
		s.tied = false // it fell below the mode again
	}
}

// free empties slot i, shifting later entries of its probe run back so
// every entry stays reachable from its home slot (Knuth's Algorithm R).
func (s *spill) free(i int) {
	mask := len(s.slots) - 1
	for j := (i + 1) & mask; s.slots[j].n > 0; j = (j + 1) & mask {
		home := s.home(s.slots[j].id)
		// The entry at j may move to i unless its home lies cyclically
		// in (i, j].
		if (i < j && (home <= i || home > j)) || (i > j && home <= i && home > j) {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = valCount{}
}

// settle resolves the tie inc parked, if any.
func (s *spill) settle(in *relation.Interner) {
	if s.tied {
		if s.modeOK && in.ByID(s.tie) < in.ByID(s.mode) {
			s.mode = s.tie
		}
		s.tied = false
	}
}

// best returns the spill's mode and its count, caching what peek found.
func (s *spill) best(in *relation.Interner) (uint32, int32) {
	s.mode, s.modeN = s.peek(in)
	s.modeOK, s.tied = true, false
	return s.mode, s.modeN
}

// peek is best without writing the cache: the cached mode with a parked
// tie settled, or a rescan when the cache was dropped.
func (s *spill) peek(in *relation.Interner) (uint32, int32) {
	if s.modeOK {
		if s.tied && in.ByID(s.tie) < in.ByID(s.mode) {
			return s.tie, s.modeN
		}
		return s.mode, s.modeN
	}
	var mode uint32
	var n int32
	for _, e := range s.slots {
		if e.n > n || (e.n > 0 && e.n == n && in.ByID(e.id) < in.ByID(mode)) {
			mode, n = e.id, e.n
		}
	}
	return mode, n
}

func (d *dist) distinct() int {
	n := d.rest.len()
	if d.c0 > 0 {
		n++
	}
	return n
}

// add counts n more members whose value ID is v.
func (d *dist) add(v uint32, n int32) {
	if v == d.v0 && d.c0 > 0 {
		d.c0 += n
		return
	}
	if d.c0 == 0 && d.rest.len() == 0 {
		d.v0, d.c0 = v, n
		return
	}
	if d.rest == nil {
		d.rest = &spill{}
	}
	d.rest.inc(v, n)
}

// remove uncounts one member whose value ID is v.
func (d *dist) remove(v uint32) {
	if v == d.v0 && d.c0 > 0 {
		d.c0--
		return
	}
	d.rest.dec(v)
}

// count returns the number of members whose value ID is v.
func (d *dist) count(v uint32) int {
	if d.c0 > 0 && d.v0 == v {
		return int(d.c0)
	}
	return int(d.rest.count(v))
}

func (g *statGroup) add(v uint32) {
	g.size++
	g.dist.add(v, 1)
}

func (g *statGroup) remove(v uint32) {
	g.size--
	g.dist.remove(v)
}

// top returns the most frequent value ID and its count, ties broken
// toward the smallest VALUE (not the smallest ID — IDs are assigned by
// interning order, so comparing them would make the winner depend on
// arrival order; a subscriber's pattern selection needs the value-based
// rule for determinism). O(1) while the spill's cached mode holds, a
// scan of the spill when it was dropped; the scan's result is cached, so
// only the distribution's writer, or a reader holding it exclusively,
// may call top.
func (d *dist) top(in *relation.Interner) (uint32, int) { return d.pick(in, (*spill).best) }

// peek is top for readers that share the distribution: it never writes
// the spill's cached mode.
func (d *dist) peek(in *relation.Interner) (uint32, int) { return d.pick(in, (*spill).peek) }

func (d *dist) pick(in *relation.Interner, best func(*spill, *relation.Interner) (uint32, int32)) (top uint32, n int) {
	if d.c0 > 0 {
		top, n = d.v0, int(d.c0)
	}
	if d.rest != nil {
		v, c := best(d.rest, in)
		if int(c) > n || (int(c) == n && in.ByID(v) < in.ByID(top)) {
			top, n = v, int(c)
		}
	}
	return top, n
}

// settle resolves a count tie the last add left pending in the spill's
// cached mode; the fold calls it after every add.
func (d *dist) settle(in *relation.Interner) {
	if d.rest != nil {
		d.rest.settle(in)
	}
}

// xgroup is one X-group of a partition as the subscription sees it: its
// key, held once for every pair sharing the partition's X, and per slot
// (tracked A) the drain bookkeeping. In an owned partition it is the
// group itself, each slot holding its distribution. In a shared
// partition it is a mark on a CFD group (src) the apply moved since the
// last drain, and the slots' distributions go unused: src holds them.
type xgroup struct {
	// key is the packed X-projection IDs (the owned map key, or src's),
	// kept so a destroyed group can still name itself in its final
	// deltas.
	key string
	// drained is the support the group's last drain reported; 0 before
	// its first.
	drained int32
	// dirty marks membership in the partition's dirty list — a repeat
	// mark is one branch, not a map operation.
	dirty bool
	// src is the CFD group a shared partition's mark reads; nil in an
	// owned partition.
	src *group
	// dists holds one distribution per slot of the partition. A shared
	// partition's mark uses only each slot's drain fields, and a
	// first-report mark (take) has none: every slot dirty, Prev zero.
	dists []statGroup
}

// support is an owned group's member count, which every distribution
// carries.
func (g *xgroup) support() int { return int(g.dists[0].size) }

// partition is the live group store of one distinct X attribute list:
// the X-groups keyed by packed X-projection IDs, plus the dirty list —
// the groups with a pending delta, in first-mark order. A destroyed
// group leaves the store but stays on the list (support 0) until
// drained.
//
// Who owns the store is the one difference between partitions. A
// partition whose X is a CFD's LHS, and whose tracked attributes are all
// in that CFD's RHS, is shared: the CFD's groups already hold its
// support and distributions, so it keeps no groups of its own. The
// apply marks it (touch) before it changes a group, and the partition
// holds a mark only for the groups moved since their last drain. Every
// other partition is owned: it keeps its groups and folds each applied
// tuple change into them (fold). Both drain, and answer Stat and Count,
// through the same code.
type partition struct {
	in   *relation.Interner
	xIdx []int
	// aIdx[s] is the schema position of slot s's A; pairs[s] lists the
	// pairs it serves (pairs repeating an (X, A) share one slot).
	aIdx  []int
	pairs [][]int
	// groups is an owned partition's store.
	groups map[string]*xgroup
	// cs is a shared partition's CFD, and ys[s] the RHS position of slot
	// s's A. marks maps a CFD group to its pending mark. fresh holds
	// until the first drain, which reports every group of the CFD: until
	// then no mark is needed.
	cs    *cfdState
	ys    []int
	marks map[*group]*xgroup
	fresh bool
	dirty []*xgroup
}

// state returns group g's support and slot s's distribution.
func (p *partition) state(g *xgroup, s int) (int, *dist) {
	if g.src != nil {
		return g.src.size, &g.src.ys[p.ys[s]]
	}
	return int(g.dists[s].size), &g.dists[s].dist
}

// slotRef locates a distribution: a partition and a slot within it.
// In GroupStats.byAttr, slot -1 stands for "the attribute is in X".
type slotRef struct{ part, slot int32 }

// GroupStats is one live group-statistics subscription over a Monitor,
// created by TrackGroups. All methods are safe for concurrent use.
//
// Locking. mu orders Drain, Stat and Count against the fold, so each
// observes the statistics between two applied requests; an owned
// partition's groups are written only under mu held exclusively. A
// shared partition's groups and marks are written by the apply under
// the monitor's store lock held exclusively, so a drain of a shared
// partition, Stat and Count add a shared hold of the store lock. The
// lock order is Monitor.mu → GroupStats.mu → store lock → value pool:
// the fold takes mu under the writer lock after the apply released the
// store lock, and nothing takes mu while holding the store lock. Only a
// holder of mu exclusively (the drain of an owned partition) or of the
// store lock exclusively (the apply) may write a spill's cached mode;
// Stat and Count, and the drain of a shared partition, read it with
// peek.
type GroupStats struct {
	// in is the monitor's value pool; IDs in the index resolve through
	// it when deltas and stats cross to the caller.
	in    *relation.Interner
	mu    sync.RWMutex
	store *sync.RWMutex
	pairs []AttrPair
	// at[i] is pair i's distribution.
	at    []slotRef
	parts []partition
	// owned and shared report whether some partition owns its store, and
	// whether some partition reads a CFD's.
	owned, shared bool
	// byAttr maps an attribute position to what an update of it
	// touches in the owned partitions: every partition whose X contains
	// it (slot -1), and the slot of its distribution in the others that
	// track it.
	byAttr [][]slotRef
}

// lock takes mu (exclusively when excl) and, when store is set, the
// store lock shared; unlock releases both.
func (h *GroupStats) lock(excl, store bool) {
	if excl {
		h.mu.Lock()
	} else {
		h.mu.RLock()
	}
	if store {
		h.store.RLock()
	}
}

func (h *GroupStats) unlock(excl, store bool) {
	if store {
		h.store.RUnlock()
	}
	if excl {
		h.mu.Unlock()
	} else {
		h.mu.RUnlock()
	}
}

// NumPairs returns the number of tracked pairs, in TrackGroups order.
func (h *GroupStats) NumPairs() int { return len(h.pairs) }

// Pair returns one tracked pair by index.
func (h *GroupStats) Pair(i int) AttrPair { return h.pairs[i] }

// KeyOf returns the XKey a group with the given X-projection would
// carry — the bridge from caller-side values to GroupDelta.XKey / Stat
// identities. The probe does not grow the value pool: a projection
// holding a value the pool has never seen names no group, and KeyOf
// returns "", which no group of a non-empty X carries.
func (h *GroupStats) KeyOf(x []relation.Value) string {
	ids := make([]uint32, len(x))
	for i, v := range x {
		id, ok := h.in.Lookup(v)
		if !ok {
			return ""
		}
		ids[i] = id
	}
	return string(relation.AppendIDKey(nil, ids))
}

// TrackGroups attaches a group-statistics subscription for the given
// attribute pairs and returns its handle, atomically against the apply
// path: the attach runs under the writer lock, briefly quiescing
// writers, and every later apply reaches the subscription. Every group
// starts dirty, so the first Drain hands the subscriber the complete
// initial state.
//
// What the attach costs depends on who owns each partition (see
// partition). The pairs of a partition whose X is a CFD's LHS, and whose
// A's are all in that CFD's RHS, read the monitor's own groups: the
// attach folds nothing for them, and the first drain walks the CFD's
// groups. Every other partition is backfilled, folding each stored
// tuple into its groups.
//
// The statistics are memory-only: a durable monitor does not journal or
// snapshot them, and a subscription does not survive a restart —
// re-attach after recovery. Close the handle with UntrackGroups.
func (m *Monitor) TrackGroups(pairs []AttrPair) (*GroupStats, error) {
	h := &GroupStats{
		in:     m.vals,
		store:  &m.storeMu,
		pairs:  slices.Clone(pairs),
		at:     make([]slotRef, len(pairs)),
		byAttr: make([][]slotRef, m.schema.Len()),
	}
	partOf := make(map[string]int)
	for pi, p := range pairs {
		xIdx, err := m.schema.Indexes(p.X)
		if err != nil {
			return nil, fmt.Errorf("incremental: tracking pair %d: %w", pi, err)
		}
		aIdx, ok := m.schema.Index(p.A)
		if !ok {
			return nil, fmt.Errorf("incremental: tracking pair %d: schema %q has no attribute %q", pi, m.schema.Name, p.A)
		}
		xk := fmt.Sprint(xIdx)
		part, ok := partOf[xk]
		if !ok {
			part = len(h.parts)
			partOf[xk] = part
			h.parts = append(h.parts, partition{in: m.vals, xIdx: xIdx})
		}
		pt := &h.parts[part]
		slot := slices.Index(pt.aIdx, aIdx)
		if slot < 0 {
			slot = len(pt.aIdx)
			pt.aIdx = append(pt.aIdx, aIdx)
			pt.pairs = append(pt.pairs, nil)
		}
		pt.pairs[slot] = append(pt.pairs[slot], pi)
		h.at[pi] = slotRef{int32(part), int32(slot)}
	}
	for part := range h.parts {
		pt := &h.parts[part]
		for _, cs := range m.cfds {
			if ys, ok := covers(cs, pt); ok {
				pt.cs, pt.ys = cs, ys
				break
			}
		}
		if pt.cs != nil {
			h.shared = true
			continue
		}
		h.owned = true
		for ai := range h.byAttr {
			if slices.Contains(pt.xIdx, ai) {
				h.byAttr[ai] = append(h.byAttr[ai], slotRef{int32(part), -1})
			} else if s := slices.Index(pt.aIdx, ai); s >= 0 {
				h.byAttr[ai] = append(h.byAttr[ai], slotRef{int32(part), int32(s)})
			}
		}
	}

	m.attach(h, func() {
		for part := range h.parts {
			pt := &h.parts[part]
			if pt.cs != nil {
				pt.marks, pt.fresh = make(map[*group]*xgroup), true
				pt.cs.watch = append(pt.cs.watch, pt)
			}
		}
		if !h.owned {
			return
		}
		// The fold is one bounded allocation burst that immediately
		// becomes resident state (groups, projections, distributions) —
		// park the collector for its duration, the discipline recovery
		// applies. On 20 000 generated tax tuples the 210 pairs of a
		// MaxLHS-1 lattice attach in 0.22 s parked against 0.25 s
		// collecting (median of 3, 2-core x86-64), at the same peak RSS. The group maps are not
		// pre-sized: a map never gives capacity back, and reserving the
		// tuple count (capped at 4 096) per partition cost 2.6 MB of
		// resident heap there and no time.
		defer pauseGC()()
		// Fold partition-major: one partition's group map stays cache-hot
		// across the whole pass. The writer lock keeps the store still, so
		// it is read without the store lock; the handle is not published
		// yet, so neither is h.mu needed.
		for part := range h.parts {
			pt := &h.parts[part]
			if pt.cs != nil {
				continue
			}
			pt.groups = make(map[string]*xgroup)
			for _, t := range m.tuples {
				pt.add(t)
			}
		}
	})
	return h, nil
}

// covers reports whether CFD cs's groups hold partition p's statistics —
// X is the CFD's LHS and every tracked A is in its RHS — and returns
// each slot's RHS position.
func covers(cs *cfdState, p *partition) ([]int, bool) {
	if !slices.Equal(cs.xIdx, p.xIdx) {
		return nil, false
	}
	ys := make([]int, len(p.aIdx))
	for s, ai := range p.aIdx {
		if ys[s] = slices.Index(cs.yIdx, ai); ys[s] < 0 {
			return nil, false
		}
	}
	return ys, true
}

// UntrackGroups detaches a subscription; its handle stays readable but
// its drains no longer follow mutations (Stat and Count of a pair read
// from a CFD's groups still see them). Unknown handles are ignored.
func (m *Monitor) UntrackGroups(h *GroupStats) {
	m.detach(h, func() {
		for part := range h.parts {
			if pt := &h.parts[part]; pt.cs != nil {
				pt.cs.watch = slices.DeleteFunc(pt.cs.watch, func(o *partition) bool { return o == pt })
			}
		}
	})
}

// fold moves every applied op's old tuple out of, and its new tuple
// into, each owned partition — in vector order, under the writer lock.
// An update only touches what its attribute routes to, and a same-value
// update nothing. The apply already marked the shared partitions.
func (h *GroupStats) fold(ops []Op, moved []tupleChange, _ *Delta) {
	if !h.owned {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, c := range moved {
		if ops[i].Kind != OpUpdate {
			for part := range h.parts {
				if pt := &h.parts[part]; pt.cs == nil {
					pt.move(c)
				}
			}
			continue
		}
		ai := ops[i].ai
		if c.before[ai] == c.after[ai] {
			continue
		}
		for _, r := range h.byAttr[ai] {
			if r.slot < 0 {
				h.parts[r.part].move(c)
			} else {
				h.parts[r.part].shift(c, int(r.slot), ai)
			}
		}
	}
}

func (p *partition) move(c tupleChange) {
	if c.before != nil {
		p.remove(c.before)
	}
	if c.after != nil {
		p.add(c.after)
	}
}

// key packs t's X-projection IDs under the partition into buf.
func (p *partition) key(buf []byte, t idTuple) []byte {
	key := buf[:0]
	for _, j := range p.xIdx {
		key = relation.AppendIDKey(key, t[j:j+1])
	}
	return key
}

// add folds one tuple into its group, creating the group on first sight.
func (p *partition) add(t idTuple) {
	var stack [64]byte
	key := p.key(stack[:], t)
	g, ok := p.groups[string(key)]
	if !ok {
		g = &xgroup{key: string(key), dists: make([]statGroup, len(p.aIdx))}
		p.groups[g.key] = g
	}
	for s, ai := range p.aIdx {
		d := &g.dists[s]
		d.add(t[ai])
		d.settle(p.in)
		d.dirty = true
	}
	p.markDirty(g)
}

// remove unfolds a departing tuple from its group.
func (p *partition) remove(t idTuple) {
	var stack [64]byte
	g, ok := p.groups[string(p.key(stack[:], t))]
	if !ok {
		return
	}
	for s, ai := range p.aIdx {
		g.dists[s].remove(t[ai])
		g.dists[s].dirty = true
	}
	p.markDirty(g)
	if g.support() == 0 {
		// The group leaves the store but stays on the dirty list: its
		// final deltas (Support 0) are how subscribers learn it died.
		delete(p.groups, g.key)
	}
}

// shift moves an updated tuple's A-value within slot s's distribution;
// A is outside X, so the tuple stays in its group.
func (p *partition) shift(c tupleChange, s, ai int) {
	var stack [64]byte
	g, ok := p.groups[string(p.key(stack[:], c.before))]
	if !ok {
		return
	}
	d := &g.dists[s]
	d.remove(c.before[ai])
	d.add(c.after[ai])
	d.settle(p.in)
	d.dirty = true
	p.markDirty(g)
}

func (p *partition) markDirty(g *xgroup) {
	if !g.dirty {
		g.dirty = true
		p.dirty = append(p.dirty, g)
	}
}

// touch marks CFD group g of a shared partition before the apply changes
// it: every slot when its support moves (yi < 0), else the slot tracking
// the RHS position yi, if any — the marks an owned partition's fold would
// leave. A group's first mark since its last drain records the state
// that drain reported, which the group still has, as its next delta's
// Prev fields; a group the op creates records zeros. The caller holds
// the writer lock and the store lock exclusively.
func (p *partition) touch(g *group, yi int) {
	if p.fresh || (yi >= 0 && !slices.Contains(p.ys, yi)) {
		return
	}
	r := p.marks[g]
	if r == nil {
		r = &xgroup{key: g.key, src: g, drained: int32(g.size), dists: make([]statGroup, len(p.ys))}
		p.marks[g] = r
		p.markDirty(r)
	}
	for s, y := range p.ys {
		if st := &r.dists[s]; !st.dirty && (yi < 0 || y == yi) {
			d := &g.ys[y]
			_, top := d.top(p.in)
			st.prevDistinct, st.prevTop, st.dirty = int32(d.distinct()), int32(top), true
		}
	}
}

// take hands the dirty list to a drain and starts a new one. A shared
// partition's first drain takes a first-report mark for every group of
// its CFD: no slots, which drainGroups reads as every slot dirty with
// zero Prev fields, and one allocation for them all. A later mark of a
// group whose first-report mark is still unread is folded into it
// (drainGroups). The caller holds what drainGroups needs.
func (p *partition) take() []*xgroup {
	if !p.fresh {
		out := p.dirty
		p.dirty = nil
		return out
	}
	p.fresh = false
	recs := make([]xgroup, len(p.cs.groups))
	out := make([]*xgroup, 0, len(recs))
	for _, g := range p.cs.groups {
		r := &recs[len(out)]
		r.key, r.src, r.dirty = g.key, g, true
		out = append(out, r)
	}
	return out
}

// Drain appends every group-delta accumulated since the previous drain
// to buf and returns it, clearing the dirty marks. Each delta carries
// its group's state as of the drain.
func (h *GroupStats) Drain(buf []GroupDelta) []GroupDelta {
	h.DrainFunc(func(d *GroupDelta) { buf = append(buf, *d) })
	return buf
}

// drainChunk is how many dirty groups DrainFunc reads per hold of the
// subscription's lock.
const drainChunk = 256

// DrainFunc is Drain without the caller's buffer: it hands each delta
// to fn in turn and returns how many it handed over. The dirty groups
// are read a chunk at a time under the subscription's lock and handed
// over outside it, so draining every (pair, group) of a fresh attach
// holds one chunk of deltas in memory, not one delta per group, and
// writers fold between chunks. Groups dirtied again after their chunk
// was read wait for the next drain. The *GroupDelta is reused: copy
// what outlives the call (its X may be kept as is).
func (h *GroupStats) DrainFunc(fn func(*GroupDelta)) int {
	work := make([][]*xgroup, len(h.parts))
	h.lock(true, h.shared)
	for part := range h.parts {
		work[part] = h.parts[part].take()
	}
	h.unlock(true, h.shared)
	n := 0
	var buf []GroupDelta
	for part, groups := range work {
		shared := h.parts[part].cs != nil
		for len(groups) > 0 {
			k := min(drainChunk, len(groups))
			h.lock(true, shared)
			buf = h.drainGroups(buf[:0], part, groups[:k])
			h.unlock(true, shared)
			groups = groups[k:]
			for i := range buf {
				fn(&buf[i])
			}
			n += len(buf)
		}
	}
	return n
}

// drainGroups appends the deltas of the given dirty groups of one
// partition to buf and clears their marks; the caller holds h.mu
// exclusively, and for a shared partition the store lock shared.
func (h *GroupStats) drainGroups(buf []GroupDelta, part int, groups []*xgroup) []GroupDelta {
	p := &h.parts[part]
	for _, g := range groups {
		if !g.dirty {
			continue // folded into a first-drain mark read earlier
		}
		g.dirty = false
		if g.src != nil {
			// Reported, the group is clean: its next mark records what
			// this drain reads. A mark the apply made while the group's
			// first-drain mark waited is covered by this report.
			if o := p.marks[g.src]; o != nil && o != g {
				o.dirty = false
			}
			delete(p.marks, g.src)
		}
		size, _ := p.state(g, 0)
		if size == 0 && g.drained == 0 {
			continue // born and destroyed within the window: nothing to report
		}
		x := keyValues(h.in, g.key)
		for s := range p.pairs {
			d := GroupDelta{XKey: g.key, X: x, Support: size, PrevSupport: int(g.drained)}
			st := &statGroup{} // a first-report mark's slot
			if g.dists != nil {
				if st = &g.dists[s]; !st.dirty {
					continue
				}
				st.dirty = false
				d.PrevDistinct, d.PrevTopCount = int(st.prevDistinct), int(st.prevTop)
			}
			if size > 0 {
				_, dd := p.state(g, s)
				var top uint32
				if g.src != nil {
					top, d.TopCount = dd.peek(h.in)
				} else {
					top, d.TopCount = dd.top(h.in)
				}
				d.Distinct, d.Top = dd.distinct(), h.in.ByID(top)
			}
			st.prevDistinct, st.prevTop = int32(d.Distinct), int32(d.TopCount)
			for _, pi := range p.pairs[s] {
				d.Pair = pi
				buf = append(buf, d)
			}
		}
		// A support change dirties every slot, so each pair's delta just
		// reported this support.
		g.drained = int32(size)
	}
	return buf
}

// lookup returns pair's live group with the given key: its key, its
// support and the pair's distribution within it. The caller holds what
// Stat holds.
func (h *GroupStats) lookup(pair int, xkey string) (string, int, *dist, bool) {
	r := h.at[pair]
	p := &h.parts[r.part]
	if p.cs != nil {
		g, ok := p.cs.groups[xkey]
		if !ok {
			return "", 0, nil, false
		}
		return g.key, g.size, &g.ys[p.ys[r.slot]], true
	}
	g, ok := p.groups[xkey]
	if !ok {
		return "", 0, nil, false
	}
	return g.key, g.support(), &g.dists[r.slot].dist, true
}

// Stat returns the current statistics of one group, including the full
// distribution's top value (an O(distinct) scan when the cached mode was
// dropped; the scan is not cached, so readers run in parallel).
func (h *GroupStats) Stat(pair int, xkey string) (GroupStat, bool) {
	shared := h.parts[h.at[pair].part].cs != nil
	h.lock(false, shared)
	defer h.unlock(false, shared)
	key, size, d, ok := h.lookup(pair, xkey)
	if !ok {
		return GroupStat{}, false
	}
	top, n := d.peek(h.in)
	return GroupStat{
		X:        keyValues(h.in, key),
		Support:  size,
		Distinct: d.distinct(),
		Top:      h.in.ByID(top),
		TopCount: n,
	}, true
}

// Count returns the number of members of one group whose A-value equals
// v — the distribution probe a repair planner needs when its target
// value is a pattern constant rather than the group majority. Zero when
// the group (or the value) is unknown; the probe does not grow the
// value pool.
func (h *GroupStats) Count(pair int, xkey string, v relation.Value) int {
	id, ok := h.in.Lookup(v)
	if !ok {
		return 0
	}
	shared := h.parts[h.at[pair].part].cs != nil
	h.lock(false, shared)
	defer h.unlock(false, shared)
	_, _, d, ok := h.lookup(pair, xkey)
	if !ok {
		return 0
	}
	return d.count(id)
}
