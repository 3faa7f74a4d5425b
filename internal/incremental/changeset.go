package incremental

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/relation"
)

// This file is the write path: every change to a Monitor — including
// the single-op Insert/Delete/Update, which are one-element wrappers —
// flows through Apply as a ChangeSet, and every ChangeSet through the
// commit queue onto the writer lock. The queue coalesces concurrent
// writers into one window: each request is validated by the one
// key-existence check (validateWindowReq), the accepted ones are
// journaled as ONE WAL record (one fsync in durable mode), and all of
// them are then applied by the one apply step (applyLocked)
// that recovery replay and follower replication end in too.

// OpKind distinguishes the three mutation kinds of a ChangeSet op. The
// values double as the WAL record op codes (see journal.go).
type OpKind uint8

const (
	// OpInsert adds Op.Tuple; Apply assigns Op.Key.
	OpInsert OpKind = opInsert
	// OpDelete removes the tuple with Op.Key.
	OpDelete OpKind = opDelete
	// OpUpdate sets attribute Op.Attr of tuple Op.Key to Op.Value.
	OpUpdate OpKind = opUpdate
)

// Op is one mutation within a ChangeSet.
type Op struct {
	Kind OpKind
	// Tuple is the inserted tuple (OpInsert). Apply does not retain it:
	// the stored copy is cloned and interned.
	Tuple relation.Tuple
	// Key targets an existing tuple (OpDelete, OpUpdate). For OpInsert it
	// is an output: Apply writes the assigned key back into the op, so
	// the caller reads inserted keys from the ChangeSet afterwards.
	Key int64
	// Attr and Value are the updated attribute and its new value
	// (OpUpdate).
	Attr  string
	Value relation.Value

	// ai is the resolved index of Attr and owned the monitor's private
	// clone of Tuple, both filled in by resolveOps. The clone stays
	// private: it is what the WAL records (strings, so the log format is
	// independent of process-local IDs) and what internOps resolves to
	// the ID vector the store keeps.
	ai    int
	owned relation.Tuple
	// keyed marks an insert whose Key was chosen by the caller
	// (InsertKeyed) instead of drawn from the monitor's allocator — the
	// routed-write form, where a router owns the key space. A keyed
	// insert is validated against collision with a live tuple, exactly
	// as a delete is validated for existence.
	keyed bool
	// ids is owned resolved to value IDs (OpInsert) and vid the new
	// value's ID (OpUpdate); both filled by internOps, after validation,
	// so a rejected batch never grows the pool.
	ids idTuple
	vid uint32
}

// ChangeSet is an ordered vector of mutations applied as one batch. Ops
// on the same key take effect in vector order (a batch may insert a
// tuple and update or delete it later in the same batch); ops on
// different keys commute — the net violation delta is the same under any
// interleaving.
//
// The zero value is an empty, ready-to-use ChangeSet.
type ChangeSet struct {
	Ops []Op
}

// Insert appends an insert op and returns the ChangeSet for chaining.
func (cs *ChangeSet) Insert(t relation.Tuple) *ChangeSet {
	cs.Ops = append(cs.Ops, Op{Kind: OpInsert, Tuple: t})
	return cs
}

// InsertKeyed appends an insert op with a caller-chosen key (≥ 0)
// instead of one drawn from the monitor's allocator. The batch is
// rejected if a live tuple already holds the key. The monitor's
// allocator advances past every keyed insert it accepts, so later plain
// Inserts never collide — but a caller that mixes both on one monitor
// owns the coordination; the intended user is a router that partitions
// the key space across shards (see internal/cluster) and allocates
// every key itself.
func (cs *ChangeSet) InsertKeyed(key int64, t relation.Tuple) *ChangeSet {
	cs.Ops = append(cs.Ops, Op{Kind: OpInsert, Tuple: t, Key: key, keyed: true})
	return cs
}

// Delete appends a delete op.
func (cs *ChangeSet) Delete(key int64) *ChangeSet {
	cs.Ops = append(cs.Ops, Op{Kind: OpDelete, Key: key})
	return cs
}

// Update appends a single-attribute update op.
func (cs *ChangeSet) Update(key int64, attr string, val relation.Value) *ChangeSet {
	cs.Ops = append(cs.Ops, Op{Kind: OpUpdate, Key: key, Attr: attr, Value: val})
	return cs
}

// Len returns the number of ops in the batch.
func (cs *ChangeSet) Len() int { return len(cs.Ops) }

// Keyed reports whether an insert op carries a caller-chosen key
// (InsertKeyed). A router uses this to honor pre-assigned keys when a
// sub-batch is retried instead of drawing fresh ones.
func (op *Op) Keyed() bool { return op.keyed }

// Apply runs the whole ChangeSet as one batch and returns the combined
// net violation delta. The batch is all-or-nothing: every op is
// validated (arity, domains, attribute names, and key existence — a key
// inserted earlier in the batch counts as existing) before any op is
// applied, and an invalid op rejects the entire ChangeSet. On a durable
// monitor the batch is journaled as part of a single WAL record before
// the in-memory apply — one fsync per commit window when Options.Fsync
// is set — so a crash mid-batch replays as all of the batch or none of
// it.
//
// Inserted keys are written back into cs.Ops[i].Key. Unlike the
// single-op Update, a same-value update inside an explicit batch is
// journaled (it still applies, and replays, as a no-op).
func (m *Monitor) Apply(cs *ChangeSet) (*Delta, error) {
	if cs == nil || len(cs.Ops) == 0 {
		return &Delta{}, nil
	}
	met := m.met
	start := time.Now()
	reject := func(err error) (*Delta, error) {
		met.rejected.Inc()
		return nil, err
	}
	if m.readOnly.Load() {
		// A follower only changes through the primary's shipped records;
		// local writes would fork its state from the stream it applies.
		return reject(ErrReadOnly)
	}
	if m.Fenced() {
		// A deposed primary: a higher-epoch history exists, so accepting
		// this write would fork state that can never be replicated.
		met.fencedRejected.Inc()
		return reject(ErrFenced)
	}
	if err := m.resolveOps(cs.Ops); err != nil {
		return reject(err)
	}
	d, err := m.commit(cs.Ops)
	if err != nil {
		return reject(err)
	}
	met.batches.Inc()
	met.countOps(cs.Ops)
	met.violationsAdded.Add(uint64(len(d.Added)))
	met.violationsRemoved.Add(uint64(len(d.Removed)))
	met.applySeconds.ObserveSince(start)
	return d, nil
}

// opErr tags a validation error with its op position — only for real
// batches, so the single-op wrappers surface the bare message.
func opErr(nops, i int, err error) error {
	if nops == 1 {
		return err
	}
	return fmt.Errorf("incremental: changeset op %d: %s", i, strings.TrimPrefix(err.Error(), "incremental: "))
}

// resolveOps performs the stateless half of validation and resolution:
// arity and domain checks, attribute-name resolution, cloning of
// inserted tuples, and insert-key assignment. It mutates the ops in
// place (owned tuples, resolved indexes, assigned keys). Interning is
// deliberately NOT here — it happens in internOps, after existence
// validation, so a rejected batch never grows the pools.
func (m *Monitor) resolveOps(ops []Op) error {
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case OpInsert:
			if err := m.checkTuple(op.Tuple); err != nil {
				return opErr(len(ops), i, err)
			}
			op.owned = op.Tuple.Clone()
			if op.keyed {
				if op.Key < 0 {
					return opErr(len(ops), i, fmt.Errorf("incremental: keyed insert with negative key %d", op.Key))
				}
				// Advance the allocator past the caller's key (CAS-max),
				// so a later unkeyed insert can never be handed a key a
				// keyed one already claimed.
				for {
					cur := m.nextKey.Load()
					if op.Key < cur || m.nextKey.CompareAndSwap(cur, op.Key+1) {
						break
					}
				}
			} else {
				op.Key = m.nextKey.Add(1) - 1
			}
		case OpDelete:
			// Existence is stateful; checked in validateWindowReq.
		case OpUpdate:
			ai, ok := m.schema.Index(op.Attr)
			if !ok {
				return opErr(len(ops), i, fmt.Errorf("incremental: schema %q has no attribute %q", m.schema.Name, op.Attr))
			}
			if !m.schema.Attrs[ai].Domain.Contains(op.Value) {
				return opErr(len(ops), i, fmt.Errorf("incremental: %q.%s: value %q outside domain %s",
					m.schema.Name, op.Attr, op.Value, m.schema.Attrs[ai].Domain.Name))
			}
			op.ai = ai
		default:
			return fmt.Errorf("incremental: changeset op %d: unknown kind %d", i, op.Kind)
		}
	}
	return nil
}

// internOps resolves op values to dense IDs through the monitor's value
// pool — the form the store keeps. It runs only on ops that passed
// validation and WILL apply — including replayed records — so the pool
// grows with applied state, never with rejected requests. Inserted
// tuples share one ID arena per batch, so a million-op batch costs one
// allocation for all its ID vectors.
func (m *Monitor) internOps(ops []Op) {
	nattrs := m.schema.Len()
	inserts := 0
	for i := range ops {
		if ops[i].Kind == OpInsert {
			inserts++
		}
	}
	var arena []uint32
	if inserts > 0 {
		arena = make([]uint32, 0, inserts*nattrs)
	}
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case OpInsert:
			start := len(arena)
			arena = m.vals.AppendIDs(arena, op.owned)
			op.ids = arena[start:len(arena):len(arena)]
		case OpUpdate:
			op.vid = m.vals.ID(op.Value)
		}
	}
}

// --- the commit queue ---

// commitReq is one writer's resolved ChangeSet waiting for a window.
type commitReq struct {
	ops []Op
	d   *Delta
	err error
	// wake receives once: true hands this writer the lead of the next
	// window, false reports its outcome (d, err) is final. Nil for a
	// writer that found no leader: it leads its own window at once.
	wake chan bool
}

// commitQueue is the writers' way onto the writer lock (Monitor.mu).
type commitQueue struct {
	mu      sync.Mutex
	pending []*commitReq
	leading bool // a writer is committing, or about to
}

// commit runs one resolved ChangeSet through the commit queue and
// returns this writer's own outcome. A writer that finds no leader
// leads: it takes the writer lock, then the whole queue as its window —
// everything that arrived while the lock was busy (with the previous
// window's fsync, say) rides along, so the window sizes itself to the
// writers that actually overlap. Afterwards it hands the lead to the new
// queue head and releases its window's followers. No goroutine, timer
// or bound: an idle monitor's window is the one writer that arrived.
func (m *Monitor) commit(ops []Op) (*Delta, error) {
	req := &commitReq{ops: ops}
	q := &m.q
	q.mu.Lock()
	q.pending = append(q.pending, req)
	lead := !q.leading
	if !lead {
		req.wake = make(chan bool, 1)
	}
	q.leading = true
	q.mu.Unlock()
	if !lead {
		t0 := time.Now()
		if !<-req.wake {
			m.met.gcWaitSeconds.ObserveSince(t0)
			return req.d, req.err
		}
	}
	m.mu.Lock()
	q.mu.Lock()
	window := q.pending // req is its head: it led an empty queue or was handed the lead as head
	q.pending = nil
	q.mu.Unlock()
	m.commitWindowLocked(window)
	m.mu.Unlock()
	q.mu.Lock()
	if len(q.pending) > 0 {
		q.pending[0].wake <- true
	} else {
		q.leading = false
	}
	q.mu.Unlock()
	for _, r := range window[1:] {
		r.wake <- false
	}
	return req.d, req.err
}

// commitWindowLocked validates, journals and applies one window. Each
// request is validated against the store plus the effects of the
// requests accepted before it, so one writer's bad op rejects that
// writer, never the window. The accepted requests are journaled as ONE
// record in window order — log order equals apply order — and then
// applied in that order, each writer getting its own delta. The caller
// holds m.mu; outcomes land in each request.
func (m *Monitor) commitWindowLocked(reqs []*commitReq) {
	if m.j != nil {
		if err := m.j.usable(); err != nil {
			for _, r := range reqs {
				r.err = err
			}
			return
		}
	}
	met := m.met
	t0 := time.Now()
	var overlay map[int64]bool
	if len(reqs) > 1 {
		overlay = make(map[int64]bool)
	}
	total := 0 // ops accepted; a request is accepted while its err is nil
	for _, r := range reqs {
		if r.err = m.validateWindowReq(r.ops, overlay); r.err == nil {
			total += len(r.ops)
		}
	}
	t1 := time.Now()
	met.validateSeconds.ObserveDuration(t1.Sub(t0))
	t0 = t1
	if total == 0 {
		return
	}
	if m.j != nil {
		allOps := reqs[0].ops
		if len(reqs) > 1 {
			allOps = make([]Op, 0, total)
			for _, r := range reqs {
				if r.err == nil {
					allOps = append(allOps, r.ops...)
				}
			}
		}
		if err := m.j.log.Append(encodeOps(allOps)); err != nil {
			// The record may or may not be on disk: poison the journal.
			m.j.appendErr = err
			for _, r := range reqs {
				if r.err == nil {
					r.err = err
				}
			}
			return
		}
		t1 = time.Now()
		met.walAppendSeconds.ObserveDuration(t1.Sub(t0))
		t0 = t1
	}
	vecs := make([][]Op, 0, len(reqs))
	for _, r := range reqs {
		if r.err == nil {
			vecs = append(vecs, r.ops)
		}
	}
	deltas := m.applyLocked(vecs)
	for _, r := range reqs {
		if r.err == nil {
			r.d, deltas = deltas[0], deltas[1:]
		}
	}
	met.shardApplySeconds.ObserveSince(t0)
	met.gcWindowOps.Observe(uint64(total))
	met.gcWindowWriters.Observe(uint64(len(vecs)))
	if m.j != nil {
		m.j.afterAppend(m, total)
	}
}

// validateWindowReq is the monitor's one key-existence check, for live
// windows and replayed records alike: every delete and update must
// target a key that exists at that point — in the store, in overlay (the
// effects of the requests accepted before this one in its window), or
// earlier in ops — and a keyed insert must not collide. Effects are
// staged and merged into overlay only on success, so a rejected request
// leaves no trace; a nil overlay means no later request will read it.
// The caller holds m.mu, so the store is read without the store lock.
func (m *Monitor) validateWindowReq(ops []Op, overlay map[int64]bool) error {
	// Allocator-keyed inserts are fresh by construction: a request of
	// nothing else, with nobody after it (a bulk insert), has nothing to
	// check and nothing to stage.
	refs := overlay != nil
	for i := 0; i < len(ops) && !refs; i++ {
		refs = ops[i].Kind != OpInsert || ops[i].keyed
	}
	if !refs {
		return nil
	}
	var staged map[int64]bool
	exists := func(key int64) bool {
		if v, ok := staged[key]; ok {
			return v
		}
		if v, ok := overlay[key]; ok {
			return v
		}
		_, ok := m.tuples[key]
		return ok
	}
	set := func(key int64, live bool) {
		if staged == nil {
			staged = make(map[int64]bool, 4)
		}
		staged[key] = live
	}
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case OpInsert:
			if op.keyed && exists(op.Key) {
				return opErr(len(ops), i, fmt.Errorf("incremental: tuple with key %d already exists", op.Key))
			}
			set(op.Key, true)
		case OpDelete:
			if !exists(op.Key) {
				return opErr(len(ops), i, fmt.Errorf("incremental: no tuple with key %d", op.Key))
			}
			set(op.Key, false)
		case OpUpdate:
			if !exists(op.Key) {
				return opErr(len(ops), i, fmt.Errorf("incremental: no tuple with key %d", op.Key))
			}
		}
	}
	if overlay != nil {
		for k, v := range staged {
			overlay[k] = v
		}
	}
	return nil
}

// --- the apply step ---

// applyLocked is the one apply step every state change ends in: a live
// window's requests, a recovered record, a shipped one. Each element of
// vecs is one request's ops, validated under the same hold of m.mu, so
// nothing can fail. Every op applies in one loop, in vector order, under
// one exclusive hold of the store lock, so a reader sees the whole
// window or none of it; where an op changes a store, the same hold marks
// the CFD moved for the view's next rebuild and marks each attached
// GroupStats watch. Outside that hold, each request's delta is
// normalized, and the view's version advances once per request whose
// violation set changed. The deltas come back aligned with vecs.
func (m *Monitor) applyLocked(vecs [][]Op) []*Delta {
	deltas := make([]*Delta, len(vecs))
	for i, ops := range vecs {
		m.internOps(ops)
		deltas[i] = &Delta{}
	}
	m.storeMu.Lock()
	for i, ops := range vecs {
		for j := range ops {
			m.applyOp(&ops[j], deltas[i])
		}
	}
	m.storeMu.Unlock()
	for _, d := range deltas {
		// A flip-flop request nets to an empty delta and keeps the
		// version, and the ETags derived from it.
		if d.normalize(); !d.Empty() {
			m.view.version.Add(1)
		}
	}
	return deltas
}

// applyOp applies validated op. The caller holds the writer lock and the
// store lock.
func (m *Monitor) applyOp(op *Op, d *Delta) {
	sc := &m.scratch
	switch op.Kind {
	case OpInsert:
		m.insertLocked(op.Key, op.ids, d, sc)
	case OpDelete:
		m.deleteLocked(op.Key, m.tuples[op.Key], d, sc)
	case OpUpdate:
		m.updateLocked(op.Key, m.tuples[op.Key], op.ai, op.vid, d, sc)
	}
}

// opScratch holds the writer's reusable buffers: encoded-key, projection
// and tableau-match scratch. The monitor owns one, guarded by the writer
// lock, so no mutation allocates them.
type opScratch struct {
	key  []byte
	x, y []uint32
	rows []int
}
