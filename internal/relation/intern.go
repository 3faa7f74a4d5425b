package relation

import (
	"strings"
	"sync"
	"unsafe"
)

// This file is the interned value pool behind the mutation hot path.
// Value stays a plain string at every API boundary; interning only
// canonicalizes the backing storage, so a relation full of categorical
// data ("NYC" in a million tuples) holds one copy of each distinct
// value.
//
// Beyond canonical strings, the pool hands out dense uint32 value IDs:
// the i-th distinct value interned gets ID i. IDs are the currency of
// the ID-column stores in internal/incremental — tuples and group keys
// hold 4-byte IDs instead of 16-byte string headers — and ByID /
// Materialize turn them back into strings at API boundaries. IDs are
// process-local: they depend on interning order, so they are never
// written to the WAL, and snapshots embed their own value table and
// remap on load (see incremental/persist.go).
//
// Pool methods take no lock but the pool's own, so a caller may hold its
// own locks across a call: the monitor interns and materializes under
// its store lock (lock order: writer lock → store lock → pool).

// Interner is a concurrency-safe dedup pool of Values. Intern of an
// already-seen value returns the pooled copy without allocating; a
// first-seen value is copied once into the pool and assigned the next
// dense uint32 ID.
//
// The pool only grows: a value stays interned even after every tuple
// referencing it is gone. For a monitor over categorical data that is
// the point — the distinct-value set is small and stable — but callers
// feeding unbounded unique values (UUIDs, timestamps) should note that
// every distinct value costs one pooled copy for the pool's lifetime.
// (The ID-column tuple store interns every column; see the tradeoff
// note on incremental.Options.Intern.)
type Interner struct {
	mu sync.RWMutex
	// m maps a value to its ID; its keys are the canonical copies.
	m map[string]uint32
	// ids maps ID → canonical value; append-only.
	ids []Value
	// buf is the chunk first-seen values are copied into, so n pooled
	// values cost a few allocations, not n. A chunk lives while any
	// value in it does; values are never dropped, so none pins garbage.
	buf []byte
}

// NewInterner returns an empty pool.
func NewInterner() *Interner {
	return &Interner{m: make(map[string]uint32)}
}

// Intern returns the canonical copy of v. Hits are allocation-free; a
// first-seen value is copied into the pool so the pool never retains a
// larger backing array v might be a substring of (a CSV read buffer, a
// decoded WAL record).
func (in *Interner) Intern(v Value) Value {
	in.mu.RLock()
	id, ok := in.m[v]
	if ok {
		v = in.ids[id]
	}
	in.mu.RUnlock()
	if ok {
		return v
	}
	in.mu.Lock()
	v = in.ids[in.addLocked(v)]
	in.mu.Unlock()
	return v
}

// ID returns the dense uint32 ID of v, interning it first if needed.
// The i-th distinct value gets ID i; ByID inverts the mapping.
func (in *Interner) ID(v Value) uint32 {
	in.mu.RLock()
	id, ok := in.m[v]
	in.mu.RUnlock()
	if ok {
		return id
	}
	in.mu.Lock()
	id = in.addLocked(v)
	in.mu.Unlock()
	return id
}

// Lookup returns the ID of v and true if v is pooled, or false without
// interning it: the probe for read paths, where a value no tuple holds
// matches nothing and must not grow the pool.
func (in *Interner) Lookup(v Value) (uint32, bool) {
	in.mu.RLock()
	id, ok := in.m[v]
	in.mu.RUnlock()
	return id, ok
}

// addLocked interns v under the write lock (re-checking first: another
// goroutine may have interned it between the caller's RUnlock and here)
// and returns its ID.
func (in *Interner) addLocked(v Value) uint32 {
	if id, ok := in.m[v]; ok {
		return id
	}
	id := uint32(len(in.ids))
	v = in.copyLocked(v)
	in.m[v] = id
	in.ids = append(in.ids, v)
	return id
}

// copyLocked copies v into the pool's current chunk, cutting a new one —
// twice the last, from 1 KiB up to 64 KiB — when v does not fit; a value
// over a quarter of the largest chunk gets its own allocation.
func (in *Interner) copyLocked(v Value) Value {
	const maxChunk = 64 << 10
	if len(v) == 0 || len(v) > maxChunk/4 {
		return strings.Clone(v)
	}
	if len(in.buf)+len(v) > cap(in.buf) {
		in.buf = make([]byte, 0, max(min(2*cap(in.buf), maxChunk), 1<<10))
	}
	start := len(in.buf)
	in.buf = append(in.buf, v...)
	return unsafe.String(&in.buf[start], len(v))
}

// InternTuple canonicalizes every value of t in place and returns t.
func (in *Interner) InternTuple(t Tuple) Tuple {
	for i, v := range t {
		t[i] = in.Intern(v)
	}
	return t
}

// AppendIDs appends the IDs of every value of t to dst and returns it,
// interning first-seen values. The common all-hits case runs under one
// read lock; misses fall back to per-value interning.
func (in *Interner) AppendIDs(dst []uint32, t Tuple) []uint32 {
	base := len(dst)
	miss := false
	in.mu.RLock()
	for _, v := range t {
		id, ok := in.m[v]
		if !ok {
			miss = true
			break
		}
		dst = append(dst, id)
	}
	in.mu.RUnlock()
	if !miss {
		return dst
	}
	dst = dst[:base]
	for _, v := range t {
		dst = append(dst, in.ID(v))
	}
	return dst
}

// AppendRows appends the IDs of every value of every tuple of ts to dst,
// row by row, and returns it: AppendIDs over a whole relation under one
// hold of the write lock, handing out the IDs that AppendIDs tuple by
// tuple would — the bulk path of a monitor's seed load.
func (in *Interner) AppendRows(dst []uint32, ts []Tuple) []uint32 {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, t := range ts {
		for _, v := range t {
			dst = append(dst, in.addLocked(v))
		}
	}
	return dst
}

// ByID returns the canonical value with the given ID. IDs are dense and
// handed out in intern order, so any ID below Len is valid; an
// out-of-range ID returns "".
func (in *Interner) ByID(id uint32) Value {
	in.mu.RLock()
	defer in.mu.RUnlock()
	if int(id) >= len(in.ids) {
		return ""
	}
	return in.ids[id]
}

// Materialize appends the values of the given IDs to dst and returns
// it — the string boundary of an ID-column store. One lock round for
// the whole vector.
func (in *Interner) Materialize(dst []Value, ids []uint32) []Value {
	in.mu.RLock()
	defer in.mu.RUnlock()
	for _, id := range ids {
		if int(id) < len(in.ids) {
			dst = append(dst, in.ids[id])
		} else {
			dst = append(dst, "")
		}
	}
	return dst
}

// Values returns a copy of the ID table: index i holds the value with
// ID i. Snapshot codecs write this table once and store IDs everywhere
// else.
func (in *Interner) Values() []Value {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return append([]Value(nil), in.ids...)
}

// Len returns the number of distinct interned values.
func (in *Interner) Len() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.m)
}
