package incremental

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/relation"
)

// This file is the bulk build: the one pass that turns a whole relation
// into an empty monitor's stores — Load's seed, in memory and on a
// durable first boot, and the fold of an older snapshot's tuples. The
// per-op apply (changeset.go) pays per tuple for what changes only per
// group: a tableau probe, a delta entry, maps that grow by rehashing.
// The bulk build evaluates the paper's QV once instead: each CFD groups
// the tuples by X in one pass, probes its tableau once per new group,
// checks constant Y only against the rows with Y constants that group
// matched, and derives its constant violations, violating groups and
// counter from the finished groups. It emits no delta.
//
// The per-CFD folds write disjoint cfdStates and only read the tuples,
// the tableau indexes and the value pool, so they run one CFD at a time
// per worker on min(|Σ|, GOMAXPROCS) goroutines. Like recovery, the
// build is one allocation burst that immediately becomes resident
// state, so GC is parked for it.

// seed loads every tuple of rel into the empty monitor, keyed
// 0..Len()-1 in row order, through the bulk build. Used by the
// memory-only Load and the first boot of a durable directory (before the
// journal is attached, so nothing is journaled). Every row is validated
// before anything is stored, with the messages Apply gives, and the
// values get the IDs Apply would hand out. The metrics count the build
// as the one Apply batch it replaces; an empty relation, like an empty
// ChangeSet, counts nothing.
func (m *Monitor) seed(rel *relation.Relation) error {
	n := len(rel.Tuples)
	if n == 0 {
		return nil
	}
	met := m.met
	start := time.Now()
	for i, t := range rel.Tuples {
		if err := m.checkTuple(t); err != nil {
			met.rejected.Inc()
			return fmt.Errorf("incremental: loading instance: %w", opErr(n, i, err))
		}
	}
	// An Apply's window validation checks key existence; the build's keys
	// are fresh, so that stage is empty.
	met.validateSeconds.ObserveDuration(0)
	t0 := time.Now()
	defer pauseGC()()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.storeMu.Lock()
	defer m.storeMu.Unlock()

	w := m.schema.Len()
	arena := m.vals.AppendRows(make([]uint32, 0, n*w), rel.Tuples)
	keys := make([]int64, n)
	rows := make([]idTuple, n)
	m.tuples = make(map[int64]idTuple, n)
	for i := range rows {
		keys[i] = int64(i)
		rows[i] = arena[i*w : (i+1)*w : (i+1)*w]
		m.tuples[keys[i]] = rows[i]
	}
	m.size.Store(int64(n))
	m.nextKey.Store(int64(n))
	added := m.bulkFold(keys, rows)
	// No view is built yet, so the first read canonicalizes every CFD
	// without moved marks; Apply bumps the version only for a nonempty
	// delta.
	if added > 0 {
		m.view.version.Add(1)
	}

	met.shardApplySeconds.ObserveSince(t0)
	met.gcWindowOps.Observe(uint64(n))
	met.gcWindowWriters.Observe(1)
	met.batches.Inc()
	met.opsInsert.Add(uint64(n))
	met.violationsAdded.Add(uint64(added))
	met.applySeconds.ObserveSince(start)
	return nil
}

// bulkFold folds rows[i], stored under keys[i] in ascending key order,
// into every CFD's empty stores and returns the violations they hold
// then. The caller holds the writer lock and the store lock, or owns a
// monitor nobody else holds yet.
func (m *Monitor) bulkFold(keys []int64, rows []idTuple) int64 {
	var next atomic.Int64
	work := func() {
		var f cfdFold
		for ci := next.Add(1) - 1; ci < int64(len(m.cfds)); ci = next.Add(1) - 1 {
			f.run(m, m.cfds[ci], keys, rows)
		}
	}
	var wg sync.WaitGroup
	for range min(len(m.cfds), runtime.GOMAXPROCS(0)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	var total int64
	for _, cs := range m.cfds {
		total += cs.violations.Load()
	}
	return total
}

// cfdFold is one worker's scratch, reused across the CFDs it folds.
type cfdFold struct {
	key    []byte
	x, y   []uint32
	rows   []int
	consts []int64
}

// run folds every tuple into CFD cs's empty groups, then fills its
// constant violations, violating groups and counter from them.
func (f *cfdFold) run(m *Monitor, cs *cfdState, keys []int64, rows []idTuple) {
	nrhs := len(cs.yIdx)
	groups := make(map[string]*group)
	// yrows holds, per group whose tableau rows include one with Y
	// constants, those rows: the only ones a later member can violate.
	yrows := make(map[*group][]int)
	// Group structs, their distributions and their keys (4 bytes per X
	// attribute) live in arenas, as on recovery (readGroups); a slab of
	// each is cut when the last one fills.
	var slab []group
	var dists []dist
	var xkeys []byte
	f.consts = f.consts[:0]
	for i, t := range rows {
		f.x = projectIDs(f.x[:0], t, cs.xIdx)
		f.y = projectIDs(f.y[:0], t, cs.yIdx)
		f.key = relation.AppendIDKey(f.key[:0], f.x)
		g, ok := groups[string(f.key)]
		if !ok {
			if len(slab) == cap(slab) {
				c := min(max(2*cap(slab), 64), 4096)
				slab, dists = make([]group, 0, c), make([]dist, c*nrhs)
				xkeys = make([]byte, 0, c*len(f.key))
			}
			slab = slab[:len(slab)+1]
			g = &slab[len(slab)-1]
			xkeys = append(xkeys, f.key...)
			g.key = unsafe.String(unsafe.SliceData(xkeys[len(xkeys)-len(f.key):]), len(f.key))
			g.ys, dists = dists[:nrhs:nrhs], dists[nrhs:]
			f.rows = cs.tab.Match(f.rows[:0], f.x)
			g.selected = len(f.rows) > 0
			for _, ri := range f.rows {
				if cs.tab.ConstY(ri) {
					yrows[g] = append(yrows[g], ri)
				}
			}
			groups[g.key] = g
		}
		if len(yrows) > 0 {
			for _, ri := range yrows[g] {
				if !cs.tab.MatchY(ri, f.y) {
					f.consts = append(f.consts, keys[i])
					break
				}
			}
		}
		g.size++
		for j, v := range f.y {
			g.ys[j].add(v, 1)
		}
	}
	cs.groups = groups
	cs.consts = make(map[int64]bool, len(f.consts))
	for _, k := range f.consts {
		cs.consts[k] = true
	}
	for _, g := range groups {
		if g.violating() {
			cs.vgroups[g] = keyValues(m.vals, g.key)
		}
	}
	cs.violations.Store(int64(len(cs.consts) + len(cs.vgroups)))
}
