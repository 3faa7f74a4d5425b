package incremental

import (
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/relation"
)

// This file is the read path's counterpart to the batched write path: a
// live materialized violation view, published as an immutable
// atomically-swapped snapshot (ViolationsView) and rebuilt from the
// monitor's own stores — each CFD's constant-violation set and its set of
// violating groups — never from a copy of them.
//
// The view keeps only a version and the published pointer; which CFDs'
// violation sets moved since the last build is a flag on each CFD's state
// (cfdState.moved). The apply sets it where it changes the CFD's
// constant-violation set or a group's violation status, under the store
// lock, in the same exclusive hold that changes the stores, so a rebuild
// (which reads the stores under the shared hold) always sees flags and
// stores agree and never mixes two windows across CFDs. The version
// bumps in the apply (applyLocked), from each request's normalized delta,
// so it moves only when the violation set actually changed: a flip-flop
// batch (a group leaving and re-entering violation) nets to an empty
// delta and keeps the version — and the ETags derived from it — stable.
//
// Publication is copy-on-write: the canonical *State is rebuilt lazily,
// at most once per version, by the first reader that sees a stale
// pointer; only the CFDs moved since the previous build are
// re-canonicalized, the rest share the prior view's slices. Repeat
// readers at an unchanged version pay one atomic pointer load — no store
// lock, no allocation, ever. ScanViolations (the full scan of every
// group) remains as the from-scratch oracle the property tests compare
// against.

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

// viewState anchors the Monitor's maintained view: the version counter
// and the published pointer. mu serializes rebuilders, which read and
// clear the CFDs' moved flags under it and the shared store lock; the
// published pointer and version reads are lock-free.
type viewState struct {
	mu      sync.Mutex
	version atomic.Uint64
	cur     atomic.Pointer[ViolationsView]
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
	st := &State{PerCFD: make([]CFDViolations, len(m.cfds))}
	m.storeMu.RLock()
	for ci, cs := range m.cfds {
		if prev != nil && !cs.moved {
			st.PerCFD[ci] = prev.state.PerCFD[ci]
			continue
		}
		st.PerCFD[ci] = m.cfdViolations(cs, maps.Values(cs.vgroups))
		cs.moved = false
	}
	m.storeMu.RUnlock()
	next := &ViolationsView{version: version, built: time.Now(), state: st}
	v.cur.Store(next)
	m.met.viewRebuilds.Inc()
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
// conflict. That projection is shared with the view: treat it as
// read-only. The second result is false when no live tuple holds the key.
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
		if xs, ok := cs.vgroups[cs.groups[string(keyBuf)]]; ok {
			st.PerCFD[ci].VariableKeys = [][]relation.Value{xs}
		}
	}
	return st, true
}
