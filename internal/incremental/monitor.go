// Package incremental maintains the violation set of a CFD set under
// tuple-level changes — the serving-path counterpart of the batch detectors
// in internal/detect.
//
// A Monitor is loaded once with an instance I and a CFD set Σ; it indexes
// each CFD's static tableau once (core.TableauIndex, the same index the
// batch detector probes), probes it per tuple, and thereafter answers
// Insert, Delete and Update in time proportional to the tuples and groups
// actually affected, instead of rescanning I. Every operation returns the
// exact delta it caused — the violations that appeared and the violations
// that were retired — while the live violation set stays queryable at any
// time.
//
// Every mutation flows through one batched path: Apply takes a ChangeSet
// (an ordered vector of insert/delete/update ops), and the single-op
// Insert, Delete and Update are one-element wrappers over it. Building
// state from a whole relation is not a mutation of live state, and goes
// through the bulk build instead (bulk.go): Load's seed and the fold of
// an older snapshot's tuples group each CFD's tuples in one pass, with no
// delta, before any reader or consumer can see the monitor.
//
// State is stored as dense value-ID columns: every distinct value is
// interned once (relation.Interner) and handed a uint32 ID, tuples are
// []uint32 vectors, tableau constants are pre-resolved to IDs at build
// time, and group keys are the packed 4-byte-per-ID encoding — so the
// hot path compares and hashes integers, and a million-tuple store costs
// 4 bytes per cell instead of a 16-byte string header. Strings reappear
// only at API boundaries (Get, Violations, deltas), materialized through
// the interner.
//
// The monitor is a single-writer state machine. Monitor.mu, the writer
// lock, is held by every state change — live Apply on memory and durable
// monitors, recovery replay, a follower's replication, promotion,
// snapshot rolls and consumer attach/detach — so state changes are
// totally ordered, and in durable mode WAL log order equals apply order,
// which is what makes replay rebuild the exact pre-crash state. Writers
// reach the lock through the commit queue (changeset.go): a writer that
// finds no leader takes the lock and commits everything queued behind it
// as one window — one validation pass, one WAL record, one fsync — while
// every writer still gets its own outcome and its own delta. A window's
// ops apply in one loop, in vector order.
//
// Readers never take the writer lock. The stores — the tuples, and per
// CFD the groups (each with one value distribution per RHS attribute),
// the constant violations and the violating groups — are plain maps
// behind one read/write lock, the store lock (Monitor.storeMu). The
// apply holds it exclusively around a window's op loop only; the WAL
// append, the fsync and the consumer folds run outside it. Point readers (Get, Keys, ViolationsFor, ...)
// and the view's rebuild hold it shared, so they see whole commit
// windows, never half of one; a repeat view read (Violations) and the
// counters (Satisfied, ViolationCount) take no lock at all. Lock order
// is Monitor.mu → store lock → interner locks; a view rebuild takes the
// view's own mutex, and a group-statistics drain its subscription's
// (GroupStats.mu), before the store lock, and neither takes Monitor.mu.
// The randomized property tests replay long mixed update streams — single
// ops and batches — and cross-check the live set against a fresh
// detect.Direct run after every step.
//
// With Options.Durable set, the monitor becomes a persistent node: every
// mutation is appended to a write-ahead change log (internal/wal) before
// the in-memory apply, snapshots of the full state bound both the log
// length and the recovery time, and a restart rebuilds the live violation
// set from the latest snapshot plus the log tail instead of re-parsing
// and re-indexing the source data. See journal.go and persist.go; the
// kill-and-recover property test in crash_test.go truncates the log at
// arbitrary byte offsets and cross-checks the recovered state against the
// batch detector.
package incremental

import (
	"fmt"
	"iter"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relation"
)

// Options configures a Monitor.
type Options struct {
	// Durable, when non-empty, is a directory the monitor journals to: a
	// write-ahead change log records every mutation before it is applied,
	// and snapshots of the full state (tuples, group indexes, live
	// violation set) bound recovery time. If the directory already holds
	// state, New and Load recover from it — latest snapshot plus log-tail
	// replay — instead of starting from the given seed.
	Durable string

	// Fsync, in durable mode, fsyncs the log after every commit window:
	// an acknowledged mutation then survives OS crash and power loss, at
	// the cost of one disk sync per window. Without it every acknowledged
	// record has still reached the OS in one write(2) before the ack, so
	// it survives the process dying (kill -9, panic, OOM); only an OS
	// crash or power loss can lose the unsynced tail.
	Fsync bool

	// SnapshotEvery, in durable mode, rolls a background snapshot after
	// this many journaled records, truncating the log. 0 disables
	// automatic snapshots (use ForceSnapshot).
	SnapshotEvery int

	// RetainSegments, in durable mode, keeps this many closed log
	// segments behind the current generation when a snapshot rolls,
	// instead of garbage-collecting everything below it. A primary that
	// ships its WAL (see Follower) needs retention: a follower whose
	// cursor sits in a closed segment resumes from it directly, while a
	// cursor below the retained window pays a full snapshot resync.
	// Old snapshots are still collected at every roll — recovery and
	// resync only ever read the newest one. 0 retains nothing (the
	// single-node default).
	RetainSegments int

	// Intern, when non-nil, is a value pool the monitor adopts instead of
	// a private one, so monitors that share it share every pooled value
	// and hand out the same value IDs. A CSV boot needs none: the bulk
	// build interns the relation's values once, under one hold of the
	// pool's lock. The monitor stores tuples as dense value IDs handed out
	// by this pool, so every column's distinct values are interned —
	// including free-text ones. The pool only grows: a column of
	// unbounded unique values (UUIDs, timestamps) keeps each distinct
	// value pooled for the monitor's lifetime, the price of the 4-byte ID
	// cells.
	Intern *relation.Interner

	// Metrics is the observability registry the monitor instruments
	// itself into (apply-stage timers, WAL timings, violation counters;
	// see internal/obs). nil means a private registry per monitor, so
	// tests stay hermetic; a daemon passes obs.Default() so one scrape
	// covers every component.
	Metrics *obs.Registry
}

// cfdState is the per-CFD live state: the static tableau index plus the
// group and constant-violation stores, guarded by the store lock.
type cfdState struct {
	cfd        *core.CFD
	xIdx, yIdx []int
	// tab is the tableau index, its constants resolved through the value
	// pool, so a probe compares integers, never strings.
	tab *core.TableauIndex
	// groups maps the packed-ID X-projection to its group. Removal
	// recomputes the member's projections from the departing tuple, so no
	// per-member index is needed at all.
	groups map[string]*group
	// consts is the set of constant-violating tuple keys, and vgroups the
	// set of violating groups, each with its X-projection materialized
	// once, when it started violating — the two stores the violation view
	// reads.
	consts  map[int64]bool
	vgroups map[*group][]relation.Value
	// violations counts this CFD's live violations (constant-violating
	// tuples plus violating groups); maintained by the apply, read
	// lock-free by Satisfied.
	violations atomic.Int64
	// watch lists the attached GroupStats' watches of this CFD, one per
	// subscription (stats.go). The apply marks them before it changes a
	// group; nil while no subscription is attached. Guarded by the writer
	// lock.
	watch []*watch
}

// Monitor is a stateful incremental violation monitor for one relation
// instance and one CFD set. All methods are safe for concurrent use.
type Monitor struct {
	schema *relation.Schema
	sigma  []*core.CFD

	nextKey atomic.Int64
	size    atomic.Int64

	// storeMu is the store lock: it guards tuples and every cfdState's
	// groups, consts and vgroups (see the package comment). The writer
	// takes it exclusively around the op loop only; readers take it
	// shared; code already holding mu reads the stores without it, since
	// only the writer changes them.
	storeMu sync.RWMutex
	// tuples is the tuple store. Tuples are ID columns: 4 bytes per value
	// instead of a 16-byte string header.
	tuples map[int64]idTuple

	cfds []*cfdState
	// attrCFDs maps an attribute position to the indexes of the CFDs
	// whose X ∪ Y mentions it — the only CFDs an Update of that attribute
	// can affect.
	attrCFDs [][]int

	// vals is the value pool: every stored cell is a dense uint32 ID into
	// it, and tableau constants are resolved through it at build time.
	vals *relation.Interner

	// met holds the pre-registered metric handles.
	met *monMetrics

	// mu is the writer lock, held by every state change (see the package
	// comment); q is the commit queue writers reach it through. The
	// journal, the attached consumers and every store write are guarded
	// by mu.
	mu sync.Mutex
	q  commitQueue
	// scratch is the apply's reusable buffers, guarded by mu.
	scratch opScratch

	// j is the durable journal; nil for a memory-only monitor.
	j *journal

	// consumers are folded after every applied request, under mu and in
	// apply order (see subscribe.go): consumers[0] is the violation view,
	// always attached; TrackDeltas attaches the others.
	consumers []consumer

	// readOnly gates the public mutation surface while the monitor
	// follows a primary's WAL stream (see follower.go): Apply and
	// ForceSnapshot refuse with ErrReadOnly, and only the replication
	// apply path — which carries the primary's already-journaled records
	// — may change state. Promotion clears it at a record boundary.
	readOnly atomic.Bool

	// view is the maintained violation view: rebuilt from the stores for
	// the CFDs an apply moved, published as an immutable atomically-
	// swapped snapshot. See view.go.
	view viewState

	// epoch is the fencing term this monitor's history is written under:
	// bumped (and journaled) by promotion, restored from the snapshot
	// and epoch records on recovery. fencedAt is the highest epoch the
	// monitor has LEARNED of; when it exceeds epoch the monitor knows it
	// was deposed and refuses mutations with ErrFenced. See fence.go.
	epoch    atomic.Uint64
	fencedAt atomic.Uint64
}

// ReadOnly reports whether the monitor currently refuses mutations
// because it is following a primary (see Follower; promotion clears it).
func (m *Monitor) ReadOnly() bool { return m.readOnly.Load() }

// New builds an empty Monitor for the schema and Σ. Every CFD is validated
// against the schema, and Σ must be consistent, up front. With
// Options.Durable set, a directory that already holds journaled state is
// recovered instead.
func New(schema *relation.Schema, sigma []*core.CFD, opts Options) (*Monitor, error) {
	m, err := build(schema, sigma, opts)
	if err != nil {
		return nil, err
	}
	if opts.Durable != "" {
		if err := attachJournal(m, opts, nil); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// build constructs the in-memory monitor without any journal wiring. It
// refuses an inconsistent Σ, so New, Load, Open and followers share the
// check.
func build(schema *relation.Schema, sigma []*core.CFD, opts Options) (*Monitor, error) {
	vals := opts.Intern
	if vals == nil {
		vals = relation.NewInterner()
	}
	m := &Monitor{
		schema:   schema,
		sigma:    sigma,
		tuples:   make(map[int64]idTuple),
		attrCFDs: make([][]int, schema.Len()),
		vals:     vals,
	}
	for i, c := range sigma {
		if err := c.Validate(schema); err != nil {
			return nil, fmt.Errorf("incremental: CFD %d: %w", i, err)
		}
		xIdx, err := schema.Indexes(c.LHS)
		if err != nil {
			return nil, err
		}
		yIdx, err := schema.Indexes(c.RHS)
		if err != nil {
			return nil, err
		}
		cs := &cfdState{
			cfd:     c,
			xIdx:    xIdx,
			yIdx:    yIdx,
			tab:     core.NewTableauIndex(c, vals.ID),
			groups:  make(map[string]*group),
			consts:  make(map[int64]bool),
			vgroups: make(map[*group][]relation.Value),
		}
		m.cfds = append(m.cfds, cs)
		for _, a := range c.Attrs() {
			ai := schema.MustIndex(a)
			m.attrCFDs[ai] = append(m.attrCFDs[ai], i)
		}
	}
	if err := checkConsistent(schema, sigma); err != nil {
		return nil, err
	}
	m.view.moved = make([]bool, len(sigma))
	m.consumers = []consumer{&m.view}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m.met = newMonMetrics(reg)
	// Live-state gauges read the monitor at scrape time. Re-binding a new
	// monitor to a shared registry points them at the new instance
	// (GaugeFunc: latest registration wins).
	reg.GaugeFunc("cfd_tuples", "Live tuples in the monitor.", func() float64 { return float64(m.size.Load()) })
	reg.GaugeFunc("cfd_violations", "Live violations across the CFD set.", func() float64 { return float64(m.ViolationCount()) })
	reg.GaugeFunc("cfd_epoch", "Fencing epoch this node's history is written under.", func() float64 { return float64(m.epoch.Load()) })
	reg.GaugeFunc("cfd_violations_view_version", "Version of the maintained violation view; advances only when the violation set changes.", func() float64 { return float64(m.view.version.Load()) })
	reg.GaugeFunc("cfd_violations_view_age_seconds", "Seconds since the published violation view was materialized; -1 before the first build.", func() float64 {
		v := m.view.cur.Load()
		if v == nil {
			return -1
		}
		return time.Since(v.built).Seconds()
	})
	return m, nil
}

// checkConsistent refuses a Σ that no nonempty instance satisfies: every
// tuple would violate it and no repair could converge. The error names a
// conflicting subset found by deletion: each CFD in turn stays out if the
// rest is still inconsistent, so no proper subset of what remains
// conflicts. That costs at most |Σ| more Consistent calls, paid only on
// refusal.
func checkConsistent(schema *relation.Schema, sigma []*core.CFD) error {
	ok, _, err := core.Consistent(schema, sigma)
	if err != nil {
		return fmt.Errorf("incremental: consistency check: %w", err)
	}
	if ok {
		return nil
	}
	in := make([]int, len(sigma)) // indexes of the CFDs still in the conflict
	for i := range in {
		in[i] = i
	}
	for k := 0; k < len(in); {
		rest := make([]*core.CFD, 0, len(in)-1)
		for _, j := range in {
			if j != in[k] {
				rest = append(rest, sigma[j])
			}
		}
		ok, _, err := core.Consistent(schema, rest)
		if err != nil {
			return fmt.Errorf("incremental: consistency check: %w", err)
		}
		if ok {
			k++ // σ[in[k]] is needed for the conflict
		} else {
			in = slices.Delete(in, k, k+1)
		}
	}
	names := make([]string, len(in))
	for k, i := range in {
		c := sigma[i]
		names[k] = fmt.Sprintf("CFD %d ([%s] -> [%s], %d pattern rows)",
			i, strings.Join(c.LHS, ", "), strings.Join(c.RHS, ", "), len(c.Tableau))
	}
	return fmt.Errorf("incremental: Σ is inconsistent: no nonempty instance satisfies it; these CFDs conflict: %s",
		strings.Join(names, "; "))
}

// Load builds a Monitor over an existing instance: tuples are keyed
// 0..Len()-1 in row order, so keys coincide with the batch detectors' row
// ids for the initial load. The instance is folded in by the bulk build
// (bulk.go), one pass per CFD, and is not retained. With Options.Durable
// set, a directory that already holds journaled state wins over rel — the
// snapshot and log tail are recovered and the instance is ignored; a
// fresh directory is seeded from rel and immediately snapshotted so later
// boots skip the CSV path entirely.
func Load(rel *relation.Relation, sigma []*core.CFD, opts Options) (*Monitor, error) {
	m, err := build(rel.Schema, sigma, opts)
	if err != nil {
		return nil, err
	}
	if opts.Durable != "" {
		if err := attachJournal(m, opts, rel); err != nil {
			return nil, err
		}
		return m, nil
	}
	if err := m.seed(rel); err != nil {
		return nil, err
	}
	return m, nil
}

// Schema returns the monitored schema.
func (m *Monitor) Schema() *relation.Schema { return m.schema }

// Sigma returns the monitored CFD set.
func (m *Monitor) Sigma() []*core.CFD { return m.sigma }

// Len returns the number of live tuples.
func (m *Monitor) Len() int { return int(m.size.Load()) }

// NextKey returns the key the next unkeyed insert would be assigned —
// every live key is strictly below it. A router that partitions the key
// space across monitors seeds its own allocator from the maximum
// NextKey of its shards (see internal/cluster).
func (m *Monitor) NextKey() int64 { return m.nextKey.Load() }

// checkTuple validates arity and domains, mirroring relation.Insert.
func (m *Monitor) checkTuple(t relation.Tuple) error {
	if len(t) != m.schema.Len() {
		return fmt.Errorf("incremental: %q expects %d values, got %d", m.schema.Name, m.schema.Len(), len(t))
	}
	for i, a := range m.schema.Attrs {
		if !a.Domain.Contains(t[i]) {
			return fmt.Errorf("incremental: %q.%s: value %q outside domain %s", m.schema.Name, a.Name, t[i], a.Domain.Name)
		}
	}
	return nil
}

// Insert adds a tuple, returning its stable key and the violation delta.
// It is a one-element ChangeSet over the batched Apply path.
func (m *Monitor) Insert(t relation.Tuple) (int64, *Delta, error) {
	cs := ChangeSet{Ops: []Op{{Kind: OpInsert, Tuple: t}}}
	d, err := m.Apply(&cs)
	if err != nil {
		return 0, nil, err
	}
	return cs.Ops[0].Key, d, nil
}

// Delete removes the tuple with the given key, returning the violation
// delta (always a pure retirement or group-status change).
func (m *Monitor) Delete(key int64) (*Delta, error) {
	return m.Apply(&ChangeSet{Ops: []Op{{Kind: OpDelete, Key: key}}})
}

// Update changes one attribute of the tuple with the given key. Only the
// CFDs mentioning the attribute are re-evaluated; the delta is the net
// change (a violation present both before and after is not reported).
// A same-value update is a journal-free no-op.
func (m *Monitor) Update(key int64, attr string, val relation.Value) (*Delta, error) {
	ai, ok := m.schema.Index(attr)
	if !ok {
		return nil, fmt.Errorf("incremental: schema %q has no attribute %q", m.schema.Name, attr)
	}
	if !m.schema.Attrs[ai].Domain.Contains(val) {
		return nil, fmt.Errorf("incremental: %q.%s: value %q outside domain %s", m.schema.Name, attr, val, m.schema.Attrs[ai].Domain.Name)
	}
	// Same-value pre-check so no-ops are not journaled; a missing key is
	// left to the commit window's validator. The value can change between
	// this read and the apply, but a racing writer makes either order a
	// valid linearization; updateLocked re-checks, so a record journaled
	// for a lost race replays as a no-op, never as a wrong value.
	old, ok := m.storedTuple(key)
	if ok && m.vals.ByID(old[ai]) == val { // stored ID vectors are immutable
		return &Delta{}, nil
	}
	return m.Apply(&ChangeSet{Ops: []Op{{Kind: OpUpdate, Key: key, Attr: attr, Value: val}}})
}

// storedTuple reads the ID vector stored under key under a shared hold
// of the store lock. The vector is immutable (updateLocked stores a fresh
// one), so the caller may read it after the lock is released.
func (m *Monitor) storedTuple(key int64) (idTuple, bool) {
	m.storeMu.RLock()
	t, ok := m.tuples[key]
	m.storeMu.RUnlock()
	return t, ok
}

// insertLocked stores a validated tuple (as its ID vector, resolved by
// internOps) under key and folds it into every CFD's live state. The
// caller holds the writer lock and the store lock.
func (m *Monitor) insertLocked(key int64, ids idTuple, d *Delta, sc *opScratch) {
	m.tuples[key] = ids
	m.size.Add(1)
	for ci := range m.cfds {
		m.add(ci, key, ids, d, sc)
	}
}

// deleteLocked removes the validated tuple t stored under key and
// unfolds it from every CFD's state; locking as for insertLocked.
func (m *Monitor) deleteLocked(key int64, t idTuple, d *Delta, sc *opScratch) {
	delete(m.tuples, key)
	m.size.Add(-1)
	for ci := range m.cfds {
		m.remove(ci, key, t, d, sc)
	}
}

// updateLocked sets attribute ai of the validated tuple old stored under
// key to the value ID vid (resolved by internOps); locking as for
// insertLocked. A same-value update applies as a no-op. A CFD whose RHS,
// but not LHS, holds the attribute keeps the tuple in its group and
// moves one distribution (shift); any other mentioning CFD moves it
// between groups.
func (m *Monitor) updateLocked(key int64, old idTuple, ai int, vid uint32, d *Delta, sc *opScratch) {
	if old[ai] == vid {
		return
	}
	next := append(idTuple(nil), old...)
	next[ai] = vid
	m.tuples[key] = next
	for _, ci := range m.attrCFDs[ai] {
		cs := m.cfds[ci]
		if yi := slices.Index(cs.yIdx, ai); yi >= 0 && !slices.Contains(cs.xIdx, ai) {
			m.shift(ci, key, old[ai], next, yi, d, sc)
			continue
		}
		m.remove(ci, key, old, d, sc)
		m.add(ci, key, next, d, sc)
	}
}

// Get returns a copy of the tuple with the given key, materialized from
// its ID columns.
func (m *Monitor) Get(key int64) (relation.Tuple, bool) {
	t, ok := m.storedTuple(key)
	if !ok {
		return nil, false
	}
	return m.vals.Materialize(make(relation.Tuple, 0, len(t)), t), true
}

// Keys returns the live tuple keys in ascending order.
func (m *Monitor) Keys() []int64 {
	m.storeMu.RLock()
	out := m.keysLocked()
	m.storeMu.RUnlock()
	return out
}

// keysLocked returns the live keys in ascending order; the caller holds
// the store lock (either mode) or the writer lock.
func (m *Monitor) keysLocked() []int64 {
	out := make([]int64, 0, len(m.tuples))
	for k := range m.tuples {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// Snapshot materializes the live tuples as a relation, in key order. The
// returned relation is independent of the Monitor. Keys and tuples are
// read under one hold of the store lock, so the relation is one commit
// window's state.
func (m *Monitor) Snapshot() *relation.Relation {
	m.storeMu.RLock()
	keys := m.keysLocked()
	ids := make([]idTuple, len(keys))
	for i, k := range keys {
		ids[i] = m.tuples[k]
	}
	m.storeMu.RUnlock()
	rel := relation.New(m.schema)
	rel.Tuples = make([]relation.Tuple, len(ids))
	for i, t := range ids {
		rel.Tuples[i] = m.vals.Materialize(make(relation.Tuple, 0, len(t)), t)
	}
	return rel
}

// Columns copies the live tuples' value IDs into column form, column by
// column under one hold of the store lock, so the columns are one commit
// window's state; tuple order is the store's and varies between calls.
// Each column's pool IDs are then renumbered densely over the values its
// live cells hold, and only those values are materialized: the pool
// only grows, but a call's memory follows the live state.
func (m *Monitor) Columns() *relation.Columns {
	width := m.schema.Len()
	m.storeMu.RLock()
	n := len(m.tuples)
	cells := make([]int32, n*width)
	t := 0
	for _, tu := range m.tuples {
		for a, id := range tu {
			cells[a*n+t] = int32(id)
		}
		t++
	}
	m.storeMu.RUnlock()
	c := &relation.Columns{Schema: m.schema, Cols: make([][]int32, width), Vals: make([][]relation.Value, width)}
	renum := make(map[uint32]int32) // one column's pool IDs at a time
	var ids []uint32
	for a := range c.Cols {
		clear(renum)
		ids = ids[:0]
		col := cells[a*n : (a+1)*n : (a+1)*n]
		for i, id := range col {
			v, ok := renum[uint32(id)]
			if !ok {
				v = int32(len(ids))
				renum[uint32(id)] = v
				ids = append(ids, uint32(id))
			}
			col[i] = v
		}
		c.Cols[a], c.Vals[a] = col, m.vals.Materialize(make([]relation.Value, 0, len(ids)), ids)
	}
	return c
}

// Satisfied reports whether the live instance currently satisfies Σ. It is
// lock-free: a per-CFD violation counter is maintained by the apply and
// read atomically here.
func (m *Monitor) Satisfied() bool {
	for _, cs := range m.cfds {
		if cs.violations.Load() != 0 {
			return false
		}
	}
	return true
}

// ViolationCount returns the total number of live violations across Σ
// without materializing a snapshot.
func (m *Monitor) ViolationCount() int64 {
	var n int64
	for _, cs := range m.cfds {
		n += cs.violations.Load()
	}
	return n
}

// ScanViolations materializes a fresh snapshot of the live violation set
// by walking every group of every CFD, not the maintained vgroups set —
// the from-scratch oracle the view property tests compare to. The walk
// holds the store lock shared throughout, so the snapshot is one commit
// window's state.
func (m *Monitor) ScanViolations() *State {
	st := &State{PerCFD: make([]CFDViolations, len(m.cfds))}
	m.storeMu.RLock()
	defer m.storeMu.RUnlock()
	for ci, cs := range m.cfds {
		st.PerCFD[ci] = m.cfdViolations(cs, func(yield func([]relation.Value) bool) {
			for _, g := range cs.groups {
				if g.violating() && !yield(keyValues(m.vals, g.key)) {
					return
				}
			}
		})
	}
	return st
}

// cfdViolations canonicalizes CFD cs's violation set from its stores: the
// constant-violating keys plus the violating groups' X-projections xs
// yields. The canonical order is value-based, so two monitors with
// different ID assignments canonicalize identically. The caller holds the
// store lock (either mode) or the writer lock.
func (m *Monitor) cfdViolations(cs *cfdState, xs iter.Seq[[]relation.Value]) CFDViolations {
	if cs.violations.Load() == 0 {
		// Satisfied CFD: skip the walk and the allocations outright.
		return CFDViolations{}
	}
	out := CFDViolations{
		ConstTuples:  make([]int64, 0, len(cs.consts)),
		VariableKeys: make([][]relation.Value, 0, len(cs.vgroups)),
	}
	for k := range cs.consts {
		out.ConstTuples = append(out.ConstTuples, k)
	}
	out.VariableKeys = slices.AppendSeq(out.VariableKeys, xs)
	slices.Sort(out.ConstTuples)
	slices.SortFunc(out.VariableKeys, relation.CompareKeys)
	return out
}

// keyValues materializes a packed-ID group key (an X-projection)
// through the value pool.
func keyValues(in *relation.Interner, key string) []relation.Value {
	var buf [8]uint32
	ids := relation.DecodeIDKey(buf[:0], key)
	return in.Materialize(make([]relation.Value, 0, len(ids)), ids)
}

// projectIDs appends the IDs of t at the given positions to dst.
func projectIDs(dst []uint32, t idTuple, idx []int) []uint32 {
	for _, j := range idx {
		dst = append(dst, t[j])
	}
	return dst
}

// add folds tuple (key, t) into CFD ci's live state, appending any new
// violations to d. sc carries the writer's reusable buffers. The caller
// holds the writer lock and the store lock.
func (m *Monitor) add(ci int, key int64, t idTuple, d *Delta, sc *opScratch) {
	cs := m.cfds[ci]
	m.checkConst(ci, key, t, d, sc)
	sc.key = relation.AppendIDKey(sc.key[:0], sc.x)
	g, ok := cs.groups[string(sc.key)]
	if !ok {
		g = &group{key: string(sc.key), selected: len(sc.rows) > 0, ys: make([]dist, len(sc.y))}
		cs.groups[g.key] = g
	}
	for _, w := range cs.watch {
		w.touch(g, -1)
	}
	was := g.violating()
	g.size++
	for i, v := range sc.y {
		g.ys[i].add(v, 1)
	}
	m.flip(ci, g, was, d)
}

// remove undoes add for tuple (key, t), appending retired violations to d.
func (m *Monitor) remove(ci int, key int64, t idTuple, d *Delta, sc *opScratch) {
	cs := m.cfds[ci]
	m.dropConst(ci, key, d)
	sc.x = projectIDs(sc.x[:0], t, cs.xIdx)
	sc.key = relation.AppendIDKey(sc.key[:0], sc.x)
	g, ok := cs.groups[string(sc.key)]
	if !ok {
		return
	}
	for _, w := range cs.watch {
		w.touch(g, -1)
	}
	was := g.violating()
	g.size--
	// The departing tuple is in hand, so its Y-values are read from it
	// instead of being indexed per member.
	for i, j := range cs.yIdx {
		g.ys[i].remove(t[j])
	}
	if g.size == 0 {
		delete(cs.groups, g.key)
	}
	m.flip(ci, g, was, d)
}

// shift re-folds tuple (key, t) into CFD ci after an update of its yi-th
// RHS attribute, outside the LHS, from value ID ov: the tuple keeps its
// group, so only the constant check and one distribution move.
func (m *Monitor) shift(ci int, key int64, ov uint32, t idTuple, yi int, d *Delta, sc *opScratch) {
	cs := m.cfds[ci]
	m.dropConst(ci, key, d)
	m.checkConst(ci, key, t, d, sc)
	sc.key = relation.AppendIDKey(sc.key[:0], sc.x)
	g := cs.groups[string(sc.key)]
	for _, w := range cs.watch {
		w.touch(g, yi)
	}
	was := g.violating()
	g.ys[yi].remove(ov)
	g.ys[yi].add(sc.y[yi], 1)
	m.flip(ci, g, was, d)
}

// checkConst projects t onto CFD ci's X and Y into sc.x and sc.y, matches
// its tableau rows into sc.rows, and records a constant violation of
// any matched row.
func (m *Monitor) checkConst(ci int, key int64, t idTuple, d *Delta, sc *opScratch) {
	cs := m.cfds[ci]
	sc.x = projectIDs(sc.x[:0], t, cs.xIdx)
	sc.y = projectIDs(sc.y[:0], t, cs.yIdx)
	sc.rows = cs.tab.Match(sc.rows[:0], sc.x)
	for _, ri := range sc.rows {
		if !cs.tab.MatchY(ri, sc.y) {
			cs.consts[key] = true
			cs.violations.Add(1)
			d.Added = append(d.Added, Change{CFD: ci, Kind: core.ConstViolation, Tuple: key})
			return
		}
	}
}

// dropConst retires tuple key's constant violation of CFD ci, if any.
func (m *Monitor) dropConst(ci int, key int64, d *Delta) {
	cs := m.cfds[ci]
	if cs.consts[key] {
		delete(cs.consts, key)
		cs.violations.Add(-1)
		d.Removed = append(d.Removed, Change{CFD: ci, Kind: core.ConstViolation, Tuple: key})
	}
}

// flip records a change of group g's violation status under CFD ci,
// given whether it was violating before the op.
func (m *Monitor) flip(ci int, g *group, was bool, d *Delta) {
	cs := m.cfds[ci]
	switch now := g.violating(); {
	case !was && now:
		// The delta and the view share the materialized key: both treat
		// it as immutable.
		xs := keyValues(m.vals, g.key)
		cs.vgroups[g] = xs
		cs.violations.Add(1)
		d.Added = append(d.Added, Change{CFD: ci, Kind: core.VariableViolation, Key: xs})
	case was && !now:
		d.Removed = append(d.Removed, Change{CFD: ci, Kind: core.VariableViolation, Key: cs.vgroups[g]})
		delete(cs.vgroups, g)
		cs.violations.Add(-1)
	}
}
