package incremental

import (
	"maps"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/relation"
)

// This file is the group-statistics subscription over Σ's own groups: a
// GroupStats reports, for every CFD of Σ and every attribute A of its
// RHS, the live LHS groups of the monitored instance — support (member
// count) and the full A-value distribution — as coalesced deltas a
// subscriber drains on its own schedule, and answers point reads of one
// group. These are the groups the paper's QV query flags, and the CFD's
// group store (index.go) already holds them: each group keeps its size
// and one distribution per RHS attribute. So a subscription keeps no
// groups of its own. It is one watch per CFD: the apply marks the watch
// before it changes a group (touch), a mark records what the group's
// last drain reported, and the drain reads the CFD group itself. An
// attach folds no tuple, and the apply folds each change once.
//
// The same watch carries the CFD's constant-violation key marks: the
// apply marks a key where it adds it to the CFD's constant-violation set
// (checkConst) or drops it from it (dropConst), and DrainKeys reports
// each marked key with whether it violates as of the drain. Keys and
// groups drain under one contract (drain): take the marks, then read
// them a chunk at a time under the store lock; a subscription's first
// drain reports the whole store instead of marks. The repair Suggester
// in internal/repair rides both: it re-plans the constant-violation
// suggestion of each drained (CFD, key), folds every group delta into
// each CFD's live confidence, and re-plans the variable violations of
// those groups whose RHS attribute has, or had, two values.
//
// Dirty marks are per (group, RHS attribute): a mutation marks every
// distribution it moved, and Drain turns each into one GroupDelta. A
// delta carries the group's state as of the drain and as of its previous
// delta, so a subscriber can unfold the old contribution arithmetically
// instead of mirroring every group; a destroyed group's final delta
// still names its X-projection, so a subscriber can retire what it keyed
// by it.
//
// Like the violation indexes, the statistics speak value IDs internally:
// groups are keyed by the packed-ID X-projection and distributions count
// IDs, with strings materialized through the monitor's interner only
// when a delta or Stat crosses to the caller.

// GroupDelta reports that one LHS group of a CFD changed, as seen by one
// of its RHS attributes, since the previous Drain: it was created,
// gained or lost members (support ±), or the attribute's value
// distribution shifted. Deltas are coalesced per group between drains —
// a 1000-op batch hitting one group yields one delta per RHS attribute
// — and carry the group's state as of the drain, read under the same
// lock as one consistent whole.
//
// Which attributes a change reaches is part of the contract (the repair
// Suggester's re-plan rule rests on it): a change in a group's support —
// an insert, a delete, or an update of an LHS attribute — yields a delta
// for every RHS attribute of the CFD, and an update of an RHS attribute
// outside the LHS yields a delta for that attribute only. A delta
// compares the group with the previous delta's report, not with the
// states between the two: several updates in one window can rewrite the
// attribute in every member, from one value to another, and drain as
// Distinct 1 and PrevDistinct 1 at unchanged support.
type GroupDelta struct {
	// CFD indexes the CFD within Σ, and Y the distributed attribute
	// within that CFD's RHS.
	CFD, Y int
	// XKey is the group's identity: an opaque encoding of the
	// X-projection, stable for the life of the subscription and usable
	// with Stat and KeyOf. It is the monitor's own key for the group
	// (Monitor.ViolatingGroup).
	XKey string
	// X is the materialized X-projection, a destroyed group's included.
	// The deltas of one group within a drain share it: treat it as
	// read-only (it may be kept).
	X []relation.Value
	// Support is the group's member count; 0 reports the group was
	// destroyed.
	Support int
	// Distinct is the number of distinct values of the attribute over
	// the members.
	Distinct int
	// Top is the most frequent value, ties broken toward the smallest
	// value; TopCount is its count (equal to Support when Distinct == 1).
	Top      relation.Value
	TopCount int
	// PrevSupport, PrevDistinct and PrevTopCount are Support, Distinct
	// and TopCount as the previous delta of this (group, attribute)
	// reported them — all zero on a group's first delta. A group
	// destroyed and re-created within one window drains as two deltas,
	// the death first, and the new group's first delta has zero Prev
	// fields.
	PrevSupport, PrevDistinct, PrevTopCount int
}

// GroupStat is a point-in-time view of one LHS group's statistics under
// one RHS attribute.
type GroupStat struct {
	// X is the materialized X-projection.
	X []relation.Value
	// Support is the group's member count.
	Support int
	// Distinct is the number of distinct values of the attribute over
	// the members.
	Distinct int
	// Top is the most frequent value, ties broken toward the smallest
	// value; TopCount is its count.
	Top      relation.Value
	TopCount int
}

// dist counts the values of one attribute over a group's members — all
// a CFD group keeps per RHS attribute (index.go), and what a GroupStats
// reads. The overwhelmingly common case — members that
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

// valCount is one spilled value ID and its member count.
type valCount struct {
	id uint32
	n  int32
}

// spill holds a mixed distribution's values beyond the inline slot — up
// to the long tail of a near-unique attribute under a coarse X — in an
// open-addressing table: linear probing over a power-of-two slice, a
// zero count marks a free slot, grown at 3/4 load. A lookup touches one
// cache line and a scan is sequential. A nil spill is empty.
//
// The spill also caches its mode (ties toward the smallest value), so a
// drain need not rescan thousands of values to report the top. inc
// maintains it; a count tie needs a string comparison inc cannot make,
// so inc parks the challenger in tie and the next best or peek settles
// it. Removing the mode, or a second tie before the first settled,
// drops the cache, and the next best rescans.
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

// slotMark is one RHS attribute's drain bookkeeping in a mark: the
// distinct and top counts the group's last drained delta reported, and
// whether the attribute's distribution moved since.
type slotMark struct {
	prevDistinct, prevTop int32
	dirty                 bool
}

// mark is a watch's record of one CFD group the apply moved since the
// group's last drain.
type mark struct {
	// src is the CFD group. It keeps its key after it leaves the store,
	// so a destroyed group can still name itself in its final deltas.
	src *group
	// drained is the support the group's last drain reported; 0 before
	// its first.
	drained int32
	// dirty marks membership in the watch's dirty list — a repeat mark is
	// one branch, not a map operation.
	dirty bool
	// slots holds one entry per RHS attribute. A first-report mark (take)
	// has none: every slot dirty, Prev zero.
	slots []slotMark
}

// watch is a subscription's view of one CFD's groups and
// constant-violation keys: the pending mark of each group the apply
// moved since its last drain, the dirty list — the marks with a pending
// delta, in first-mark order — and the keys marked since the last key
// drain. A destroyed group's mark stays on the list until drained. fresh
// holds until the first group drain, which reports every group of the
// CFD, and keyFresh until the first key drain, which reports every
// constant-violating key: until then no mark is needed.
type watch struct {
	in    *relation.Interner
	cs    *cfdState
	marks map[*group]*mark
	fresh bool
	dirty []*mark

	keys     map[int64]bool
	keyFresh bool
}

// GroupStats is one live group-statistics subscription over a Monitor,
// created by TrackGroups: one watch per CFD of Σ, in Σ order, over its
// groups and its constant-violation keys. All methods are safe for
// concurrent use.
//
// Locking. The apply writes the marks under the writer lock and the
// store lock held exclusively. Drain, Stat and Count read the groups
// under a shared hold of the store lock, so each observes the statistics
// between two commit windows; a drain (of groups or keys) also writes
// the marks under that shared hold, so mu serializes drains. The lock
// order is GroupStats.mu → store lock → value pool, and nothing here
// takes the writer lock but TrackGroups and UntrackGroups. Only the
// apply may write a spill's cached mode; Stat, Count and the drain read
// it with peek.
type GroupStats struct {
	m       *Monitor
	mu      sync.Mutex
	watches []watch
}

// KeyOf returns the XKey a group with the given X-projection would
// carry — the bridge from caller-side values to GroupDelta.XKey / Stat
// identities. The probe does not grow the value pool: a projection
// holding a value the pool has never seen names no group, and KeyOf
// returns "", which no group of a non-empty X carries.
func (h *GroupStats) KeyOf(x []relation.Value) string {
	ids := make([]uint32, len(x))
	for i, v := range x {
		id, ok := h.m.vals.Lookup(v)
		if !ok {
			return ""
		}
		ids[i] = id
	}
	return string(relation.AppendIDKey(nil, ids))
}

// TrackGroups attaches a group-statistics subscription over every CFD of
// Σ and returns its handle. The attach hooks one watch onto each CFD
// under the writer lock, briefly quiescing writers, so every later apply
// marks it; it folds no tuple. The first Drain reports every group of
// every CFD, and the first DrainKeys every constant-violating key,
// handing the subscriber the complete initial state.
//
// The statistics are memory-only: a durable monitor does not journal or
// snapshot them, and a subscription does not survive a restart —
// re-attach after recovery. Close the handle with UntrackGroups.
func (m *Monitor) TrackGroups() *GroupStats {
	h := &GroupStats{m: m, watches: make([]watch, len(m.cfds))}
	m.mu.Lock()
	defer m.mu.Unlock()
	for ci, cs := range m.cfds {
		w := &h.watches[ci]
		*w = watch{in: m.vals, cs: cs, marks: make(map[*group]*mark), fresh: true,
			keys: make(map[int64]bool), keyFresh: true}
		cs.watch = append(cs.watch, w)
	}
	return h
}

// UntrackGroups detaches a subscription: its drains no longer follow
// mutations, marks already made (group and key marks alike) stay
// drainable, and a subscription never drained drains nothing. Stat and
// Count still read the live groups.
// Another monitor's handles are ignored.
func (m *Monitor) UntrackGroups(h *GroupStats) {
	if h.m != m {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.storeMu.Lock()
	defer m.storeMu.Unlock()
	for ci := range h.watches {
		w := &h.watches[ci]
		w.cs.watch = slices.DeleteFunc(w.cs.watch, func(o *watch) bool { return o == w })
		w.fresh, w.keyFresh = false, false
	}
}

// touch marks CFD group g before the apply changes it: every RHS slot
// when its support moves (yi < 0), else the slot of RHS position yi. A
// group's first mark since its last drain records the state that drain
// reported, which the group still has, as its next delta's Prev fields;
// a group the op creates records zeros. The caller holds the writer lock
// and the store lock exclusively.
func (w *watch) touch(g *group, yi int) {
	if w.fresh {
		return
	}
	r := w.marks[g]
	if r == nil {
		r = &mark{src: g, drained: int32(g.size), dirty: true, slots: make([]slotMark, len(g.ys))}
		w.marks[g] = r
		w.dirty = append(w.dirty, r)
	}
	for y := range r.slots {
		if st := &r.slots[y]; !st.dirty && (yi < 0 || y == yi) {
			d := &g.ys[y]
			_, top := d.top(w.in)
			st.prevDistinct, st.prevTop, st.dirty = int32(d.distinct()), int32(top), true
		}
	}
}

// take hands the dirty list to a drain and starts a new one. The first
// drain takes a first-report mark for every group of the CFD: no slots,
// which drainGroups reads as every slot dirty with zero Prev fields, and
// one allocation for them all. A later mark of a group whose
// first-report mark is still unread is folded into it (drainGroups). The
// caller holds what drainGroups needs.
func (w *watch) take() []*mark {
	if !w.fresh {
		out := w.dirty
		w.dirty = nil
		return out
	}
	w.fresh = false
	recs := make([]mark, len(w.cs.groups))
	out := make([]*mark, 0, len(recs))
	for _, g := range w.cs.groups {
		r := &recs[len(out)]
		r.src, r.dirty = g, true
		out = append(out, r)
	}
	return out
}

// markKey marks key, which the apply just added to the CFD's
// constant-violation set or dropped from it. The caller holds the writer
// lock and the store lock exclusively.
func (w *watch) markKey(key int64) {
	if !w.keyFresh {
		w.keys[key] = true
	}
}

// takeKeys hands the marked keys to a drain and starts a new set; the
// first key drain takes every key of the CFD's constant-violation set
// instead. The caller holds what readKeys needs.
func (w *watch) takeKeys() []int64 {
	src := w.keys
	if w.keyFresh {
		w.keyFresh, src = false, w.cs.consts
	}
	out := slices.AppendSeq(make([]int64, 0, len(src)), maps.Keys(src))
	clear(w.keys)
	return out
}

// keyMark is one drained key of CFD ci and whether it violates.
type keyMark struct {
	ci        int
	key       int64
	violating bool
}

// readKeys appends the reports of the given keys of CFD ci to buf; the
// caller holds lock.
func (h *GroupStats) readKeys(buf []keyMark, ci int, keys []int64) []keyMark {
	cs := h.watches[ci].cs
	for _, k := range keys {
		buf = append(buf, keyMark{ci, k, cs.consts[k]})
	}
	return buf
}

// Drain appends every group-delta accumulated since the previous drain
// to buf and returns it, clearing the dirty marks. Each delta carries
// its group's state as of the drain.
func (h *GroupStats) Drain(buf []GroupDelta) []GroupDelta {
	h.DrainFunc(func(d *GroupDelta) { buf = append(buf, *d) })
	return buf
}

// DrainFunc is Drain without the caller's buffer: it hands each delta
// to fn in turn and returns how many it handed over. The dirty groups
// are read a chunk at a time under the subscription's lock and handed
// over outside it, so draining every group of a fresh attach holds one
// chunk of deltas in memory, not one delta per group, and writers apply
// between chunks. Groups dirtied again after their chunk was read wait
// for the next drain. The *GroupDelta is reused: copy what outlives the
// call (its X may be kept as is).
func (h *GroupStats) DrainFunc(fn func(*GroupDelta)) int {
	return drain(h, (*watch).take, h.drainGroups, fn)
}

// DrainKeys hands fn each (CFD, key) marked since the previous key
// drain, CFD by CFD in Σ order, with whether the key constant-violates
// the CFD as of the drain, and returns how many it handed over. The
// apply marks a key where it adds the key to the CFD's
// constant-violation set or drops it from it; an op that changes the
// tuple on the CFD's attributes drops the key, then checks it again, so
// every key that violated before or after such a change is marked, and
// no other. The first key
// drain reports every constant-violating key instead. Keys are read a
// chunk at a time, as DrainFunc reads groups; a key marked again after
// its chunk was read drains again at the next drain. A key listed may
// be gone: the subscriber re-reads the tuple.
func (h *GroupStats) DrainKeys(fn func(ci int, key int64, violating bool)) int {
	return drain(h, (*watch).takeKeys, h.readKeys, func(k *keyMark) { fn(k.ci, k.key, k.violating) })
}

// drainChunk is how many marks a drain reads per hold of the
// subscription's lock.
const drainChunk = 256

// drain is the one drain contract of group and key marks alike: it takes
// every watch's pending marks under lock, then reads them drainChunk at
// a time under lock — read appends the reports of CFD ci's marks to buf
// — and hands each report to fn outside it. It returns how many reports
// it handed over.
func drain[M, D any](h *GroupStats, take func(*watch) []M, read func(buf []D, ci int, marks []M) []D, fn func(*D)) int {
	work := make([][]M, len(h.watches))
	h.lock()
	for ci := range h.watches {
		work[ci] = take(&h.watches[ci])
	}
	h.unlock()
	n := 0
	var buf []D
	for ci, marks := range work {
		for len(marks) > 0 {
			k := min(drainChunk, len(marks))
			h.lock()
			buf = read(buf[:0], ci, marks[:k])
			h.unlock()
			marks = marks[k:]
			for i := range buf {
				fn(&buf[i])
			}
			n += len(buf)
		}
	}
	return n
}

// lock takes what a drain holds: mu, then the store lock shared.
func (h *GroupStats) lock() {
	h.mu.Lock()
	h.m.storeMu.RLock()
}

func (h *GroupStats) unlock() {
	h.m.storeMu.RUnlock()
	h.mu.Unlock()
}

// drainGroups appends the deltas of the given marks of CFD ci's watch to
// buf and clears them; the caller holds lock.
func (h *GroupStats) drainGroups(buf []GroupDelta, ci int, marks []*mark) []GroupDelta {
	w := &h.watches[ci]
	for _, r := range marks {
		if !r.dirty {
			continue // folded into a first-drain mark read earlier
		}
		r.dirty = false
		// Reported, the group is clean: its next mark records what this
		// drain reads. A mark the apply made while the group's first-drain
		// mark waited is covered by this report.
		g := r.src
		if o := w.marks[g]; o != nil && o != r {
			o.dirty = false
		}
		delete(w.marks, g)
		if g.size == 0 && r.drained == 0 {
			continue // born and destroyed within the window: nothing to report
		}
		x := keyValues(h.m.vals, g.key)
		for y := range g.ys {
			d := GroupDelta{CFD: ci, Y: y, XKey: g.key, X: x, Support: g.size, PrevSupport: int(r.drained)}
			if r.slots != nil {
				st := &r.slots[y]
				if !st.dirty {
					continue
				}
				d.PrevDistinct, d.PrevTopCount = int(st.prevDistinct), int(st.prevTop)
			}
			if g.size > 0 {
				var top uint32
				top, d.TopCount = g.ys[y].peek(h.m.vals)
				d.Distinct, d.Top = g.ys[y].distinct(), h.m.vals.ByID(top)
			}
			buf = append(buf, d)
		}
	}
	return buf
}

// lookup returns CFD ci's live group with the given key and its
// distribution of RHS position y, or nil when there is no such group or
// position. The caller holds the store lock.
func (h *GroupStats) lookup(ci, y int, xkey string) (*group, *dist) {
	if ci < 0 || ci >= len(h.watches) {
		return nil, nil
	}
	g := h.watches[ci].cs.groups[xkey]
	if g == nil || y < 0 || y >= len(g.ys) {
		return nil, nil
	}
	return g, &g.ys[y]
}

// Stat returns the current statistics of one group of CFD ci under its
// y-th RHS attribute, including the full distribution's top value (an
// O(distinct) scan when the cached mode was dropped; the scan is not
// cached, so readers run in parallel).
func (h *GroupStats) Stat(ci, y int, xkey string) (GroupStat, bool) {
	h.m.storeMu.RLock()
	defer h.m.storeMu.RUnlock()
	g, d := h.lookup(ci, y, xkey)
	if g == nil {
		return GroupStat{}, false
	}
	top, n := d.peek(h.m.vals)
	return GroupStat{
		X:        keyValues(h.m.vals, g.key),
		Support:  g.size,
		Distinct: d.distinct(),
		Top:      h.m.vals.ByID(top),
		TopCount: n,
	}, true
}

// Count returns the number of members of one group of CFD ci whose
// value of its y-th RHS attribute equals v — the distribution probe a
// repair planner needs when its target value is a pattern constant
// rather than the group majority. Zero when the group (or the value) is
// unknown; the probe does not grow the value pool.
func (h *GroupStats) Count(ci, y int, xkey string, v relation.Value) int {
	id, ok := h.m.vals.Lookup(v)
	if !ok {
		return 0
	}
	h.m.storeMu.RLock()
	defer h.m.storeMu.RUnlock()
	_, d := h.lookup(ci, y, xkey)
	if d == nil {
		return 0
	}
	return d.count(id)
}
