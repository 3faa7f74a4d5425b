package incremental

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
)

// This file is the read path's counterpart to the batched write path: a
// live materialized violation view, maintained in O(Δ) from the same
// deltas Apply returns, and published as an immutable atomically-swapped
// snapshot (ViolationsView).
//
// The write path already computes exactly which violations appear and
// retire per batch; foldView folds that delta into per-CFD refcount maps
// (the "base"). Every fold runs under the writer lock in apply order, so
// a count only ever moves between 0 and 1 and presence is count > 0. The
// view version bumps only when a fold flips presence, so flip-flop
// batches (a group leaving and re-entering violation) keep the version —
// and the ETags derived from it — stable.
//
// Publication is copy-on-write: the canonical *State is rebuilt lazily,
// at most once per version, by the first reader that sees a stale
// pointer; only the CFDs dirtied since the previous build are
// re-canonicalized, clean ones share the prior view's slices. Repeat
// readers at an unchanged version pay one atomic pointer load — no store
// lock, no allocation, ever. ScanViolations (the old full scan) remains
// as the from-scratch oracle the property tests compare against.

// ViolationsView is one immutable published snapshot of the live
// violation set. Views are shared: State returns interior slices that
// must be treated as read-only.
type ViolationsView struct {
	version uint64
	built   time.Time
	state   *State
}

// Version is the violation-set version this view materializes. It
// advances only when the violation set actually changes, so it doubles
// as an ETag: a poller holding version v skips re-fetching while
// ViewVersion still reports v.
func (v *ViolationsView) Version() uint64 { return v.version }

// Built is the time this view was materialized.
func (v *ViolationsView) Built() time.Time { return v.built }

// State returns the canonical violation snapshot, in the same shape the
// full scan produces. Shared and immutable — callers must not modify it.
func (v *ViolationsView) State() *State { return v.state }

// varCount is one variable-violation group's refcount entry.
type varCount struct {
	xs []relation.Value
	n  int
}

// viewBase is one CFD's maintained fold state: refcounts keyed the same
// way the canonical snapshot is (const violations by tuple key, variable
// violations by encoded X-projection).
type viewBase struct {
	consts map[int64]int
	vars   map[string]*varCount
}

// empty reports whether the base holds no entries at all — the
// zero-violation fast path that skips canonicalization allocation.
func (b *viewBase) empty() bool { return len(b.consts) == 0 && len(b.vars) == 0 }

// canonical materializes one CFD's canonical violation set from its
// refcounts.
func (b *viewBase) canonical() CFDViolations {
	if b.empty() {
		return CFDViolations{}
	}
	consts := make([]int64, 0, len(b.consts))
	for k, n := range b.consts {
		if n > 0 {
			consts = append(consts, k)
		}
	}
	vars := make(map[string][]relation.Value, len(b.vars))
	for k, vc := range b.vars {
		if vc.n > 0 {
			vars[k] = vc.xs
		}
	}
	return canonicalizeState(consts, vars)
}

// viewState anchors the Monitor's maintained view: the fold maps, the
// version counter, and the published pointer. Base writes happen under
// the writer lock; mu orders them, dirty and version against the lazy
// rebuild, and the published pointer and version reads are lock-free.
type viewState struct {
	mu      sync.Mutex
	version atomic.Uint64
	cur     atomic.Pointer[ViolationsView]
	base    []viewBase
	dirty   []bool
}

func (v *viewState) init(ncfds int) {
	v.base = make([]viewBase, ncfds)
	v.dirty = make([]bool, ncfds)
	for i := range v.base {
		v.base[i].consts = make(map[int64]int)
		v.base[i].vars = make(map[string]*varCount)
	}
}

// fold applies one change with the given sign and reports whether it
// flipped the violation's presence.
func (v *viewState) fold(c Change, sign int) bool {
	b := &v.base[c.CFD]
	if c.Kind == core.ConstViolation {
		old := b.consts[c.Tuple]
		n := old + sign
		if n == 0 {
			delete(b.consts, c.Tuple)
		} else {
			b.consts[c.Tuple] = n
		}
		return (old > 0) != (n > 0)
	}
	k := relation.EncodeKey(c.Key)
	vc := b.vars[k]
	if vc == nil {
		// Delta keys are materialized fresh per delta, so retaining the
		// slice is safe.
		vc = &varCount{xs: c.Key}
		b.vars[k] = vc
	}
	old := vc.n
	vc.n += sign
	if vc.n == 0 {
		delete(b.vars, k)
	}
	return (old > 0) != (vc.n > 0)
}

// foldView folds one applied delta into the maintained view base —
// O(len(delta)), called by the apply step under the writer lock. The
// version bumps only if some presence actually flipped.
func (m *Monitor) foldView(d *Delta) {
	if d == nil || (len(d.Added) == 0 && len(d.Removed) == 0) {
		return
	}
	v := &m.view
	v.mu.Lock()
	changed := false
	for _, c := range d.Added {
		if v.fold(c, 1) {
			v.dirty[c.CFD] = true
			changed = true
		}
	}
	for _, c := range d.Removed {
		if v.fold(c, -1) {
			v.dirty[c.CFD] = true
			changed = true
		}
	}
	if changed {
		v.version.Add(1)
	}
	v.mu.Unlock()
}

// rebuildViewBase reseeds the fold maps from a full store scan — the
// recovery path, where readSnapshot filled the stores of a monitor
// nobody else holds yet, without producing deltas. WAL-tail replay
// folds on top of this base.
func (m *Monitor) rebuildViewBase() {
	v := &m.view
	v.mu.Lock()
	defer v.mu.Unlock()
	for ci, cs := range m.cfds {
		b := &v.base[ci]
		b.consts = make(map[int64]int)
		b.vars = make(map[string]*varCount)
		v.dirty[ci] = true
		if cs.violations.Load() == 0 {
			continue
		}
		for k := range cs.consts {
			b.consts[k] = 1
		}
		for _, g := range cs.groups {
			if g.violating() {
				xs := m.vals.Materialize(make([]relation.Value, 0, len(g.xids)), g.xids)
				b.vars[relation.EncodeKey(xs)] = &varCount{xs: xs, n: 1}
			}
		}
	}
	v.version.Add(1)
}

// ViewVersion returns the current violation-set version without
// materializing anything — what a conditional read (If-None-Match)
// compares against before deciding whether to touch the view at all.
func (m *Monitor) ViewVersion() uint64 { return m.view.version.Load() }

// View returns the current violation view. The fast path — any repeat
// read at an unchanged version — is one atomic pointer load; after a
// change, the first reader rebuilds, re-canonicalizing only the CFDs
// whose violation sets moved and sharing the rest from the prior view.
func (m *Monitor) View() *ViolationsView {
	v := &m.view
	if cur := v.cur.Load(); cur != nil && cur.version == v.version.Load() {
		return cur
	}
	return m.rebuildView()
}

func (m *Monitor) rebuildView() *ViolationsView {
	v := &m.view
	v.mu.Lock()
	defer v.mu.Unlock()
	version := v.version.Load()
	prev := v.cur.Load()
	if prev != nil && prev.version == version {
		// Raced with another reader's rebuild.
		return prev
	}
	st := &State{PerCFD: make([]CFDViolations, len(v.base))}
	for ci := range v.base {
		if prev != nil && !v.dirty[ci] {
			st.PerCFD[ci] = prev.state.PerCFD[ci]
			continue
		}
		st.PerCFD[ci] = v.base[ci].canonical()
		v.dirty[ci] = false
	}
	next := &ViolationsView{version: version, built: time.Now(), state: st}
	v.cur.Store(next)
	if m.met != nil {
		m.met.viewRebuilds.Inc()
	}
	return next
}

// Violations returns the live violation set as a shared immutable
// snapshot — the maintained view, a pointer load for repeat readers.
// Callers must not modify the result; ScanViolations materializes a
// private copy from the stores instead.
func (m *Monitor) Violations() *State { return m.View().State() }

// ViolationsFor reports the violations the live tuple with the given key
// currently participates in: a point probe against the authoritative
// stores — O(|Σ|) under one shared hold of the store lock, so the answer
// is one commit window's state, and no view materialization. The result
// uses the same canonical per-CFD shape as a full snapshot: the tuple's
// key under ConstTuples when it constant-violates, its group's
// X-projection under VariableKeys when the group it belongs to is in
// conflict. The second result is false when no live tuple holds the key.
func (m *Monitor) ViolationsFor(key int64) (*State, bool) {
	m.storeMu.RLock()
	defer m.storeMu.RUnlock()
	t, ok := m.tuples[key]
	if !ok {
		return nil, false
	}
	st := &State{PerCFD: make([]CFDViolations, len(m.cfds))}
	var x []uint32
	var keyBuf []byte
	for ci, cs := range m.cfds {
		if cs.violations.Load() == 0 {
			continue
		}
		if cs.consts[key] {
			st.PerCFD[ci].ConstTuples = []int64{key}
		}
		x = projectIDs(x[:0], t, cs.xIdx)
		keyBuf = relation.AppendIDKey(keyBuf[:0], x)
		if g := cs.groups[string(keyBuf)]; g != nil && g.violating() {
			xs := m.vals.Materialize(make([]relation.Value, 0, len(g.xids)), g.xids)
			st.PerCFD[ci].VariableKeys = [][]relation.Value{xs}
		}
	}
	return st, true
}
