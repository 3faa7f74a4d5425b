package incremental

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
)

// The tests of this file check a GroupStats — one watch per CFD, reading
// Σ's own groups and constant-violation keys — against a brute-force
// GROUP BY and a brute-force constant-pattern check over the monitor's
// snapshot, under random op streams, concurrent readers and writes that
// land while a drain hands its chunks over.

// sharedSigma gives the CFDs two- and one-attribute LHSs and RHSs. The
// constant rows give the tableau something to select; they do not
// change the statistics. ParseSet merges the two [AC] CFDs into CFD 0.
const sharedSigma = `[AC] -> [CT, NM]
[AC=908] -> [CT=MH, NM]
[AC, CT] -> [ZIP]
[ZIP] -> [AC]
[NM] -> [ZIP]`

// sharedLHSSigma has two CFDs on the LHS [AC] with different RHSs, so no
// one CFD's groups carry both attributes: each CFD's watch reads its own
// copy of the AC-groups.
const sharedLHSSigma = `[AC] -> [CT]
[AC=908] -> [CT=MH]
[AC] -> [NM]
[ZIP] -> [AC]`

func sharedSchema() *relation.Schema {
	return relation.MustSchema("R", relation.Attr("AC"), relation.Attr("CT"), relation.Attr("NM"), relation.Attr("ZIP"))
}

// sharedPools are the value pools of the tests' random tuples.
var sharedPools = [][]relation.Value{{"908", "212", "215"}, {"MH", "NYC"}, {"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m", "n", "o", "p", "q", "r", "s", "t"}, {"z1", "z2", "z3", "z4", "z5"}}

// opGen draws TestGroupStatsMatchRecount's op mix — inserts,
// deletes, and updates of a random attribute, so of X and of A alike —
// over explicit keys from its own range, so generators with disjoint
// ranges can write one monitor side by side.
type opGen struct {
	rng  *rand.Rand
	next int64
	live []int64
}

func (g *opGen) tuple() relation.Tuple {
	tu := make(relation.Tuple, len(sharedPools))
	for i, pool := range sharedPools {
		tu[i] = pool[g.rng.Intn(len(pool))]
	}
	return tu
}

// ops draws one to eight ops. Deletes win more often once more than
// max keys are live, so groups keep dying.
func (g *opGen) ops(schema *relation.Schema, max int) []Op {
	var out []Op
	for n := g.rng.Intn(8) + 1; n > 0; n-- {
		switch op := g.rng.Intn(10); {
		case op < 4 && len(g.live) <= max || len(g.live) == 0:
			out = append(out, Op{Kind: OpInsert, Key: g.next, Tuple: g.tuple()})
			g.live = append(g.live, g.next)
			g.next++
		case op < 6 || len(g.live) > max:
			i := g.rng.Intn(len(g.live))
			out = append(out, Op{Kind: OpDelete, Key: g.live[i]})
			g.live = slices.Delete(g.live, i, i+1)
		default:
			ai := g.rng.Intn(len(sharedPools))
			out = append(out, Op{Kind: OpUpdate, Key: g.live[g.rng.Intn(len(g.live))],
				Attr: schema.Attrs[ai].Name, Value: sharedPools[ai][g.rng.Intn(len(sharedPools[ai]))]})
		}
	}
	return out
}

// changeSet builds a fresh ChangeSet from ops (Apply resolves its ops in
// place, so each monitor gets its own).
func changeSet(ops []Op) *ChangeSet {
	cs := new(ChangeSet)
	for _, op := range ops {
		switch op.Kind {
		case OpInsert:
			cs.InsertKeyed(op.Key, op.Tuple)
		case OpDelete:
			cs.Delete(op.Key)
		case OpUpdate:
			cs.Update(op.Key, op.Attr, op.Value)
		}
	}
	return cs
}

// groupState is one group's statistics under one RHS attribute, as a
// subscriber holds them.
type groupState struct {
	Support, Distinct, TopCount int
	Top                         relation.Value
}

// gid names one group of CFD cfd under its y-th RHS attribute.
type gid struct {
	cfd, y int
	xkey   string
}

// subscriber folds drained deltas into the groups they report.
type subscriber map[gid]groupState

// fold folds one delta, and describes it when its Prev fields are not
// what the previous delta of its (group, attribute) reported.
func (s subscriber) fold(d *GroupDelta) string {
	k := gid{d.CFD, d.Y, d.XKey}
	prev := s[k]
	if d.Support == 0 {
		delete(s, k)
	} else {
		s[k] = groupState{d.Support, d.Distinct, d.TopCount, d.Top}
	}
	if d.PrevSupport != prev.Support || d.PrevDistinct != prev.Distinct || d.PrevTopCount != prev.TopCount {
		return fmt.Sprintf("CFD %d RHS %d delta %+v carries Prev %d/%d/%d, last drained %+v",
			d.CFD, d.Y, d.X, d.PrevSupport, d.PrevDistinct, d.PrevTopCount, prev)
	}
	return ""
}

// recount is a brute-force GROUP BY over m's snapshot: every CFD's LHS
// groups under each of its RHS attributes, by XKey, with their
// statistics and their value counts.
func recount(m *Monitor, h *GroupStats) (map[gid]groupState, map[gid]map[relation.Value]int) {
	schema := m.Schema()
	counts := make(map[gid]map[relation.Value]int)
	for _, tu := range m.Snapshot().Tuples {
		for ci, cfd := range m.Sigma() {
			x := make([]relation.Value, len(cfd.LHS))
			for i, a := range cfd.LHS {
				x[i] = tu[schema.MustIndex(a)]
			}
			xkey := h.KeyOf(x)
			for y, a := range cfd.RHS {
				k := gid{ci, y, xkey}
				if counts[k] == nil {
					counts[k] = make(map[relation.Value]int)
				}
				counts[k][tu[schema.MustIndex(a)]]++
			}
		}
	}
	states := make(map[gid]groupState)
	for k, dist := range counts {
		st := groupState{Distinct: len(dist)}
		for v, c := range dist {
			st.Support += c
			if c > st.TopCount || (c == st.TopCount && v < st.Top) {
				st.Top, st.TopCount = v, c
			}
		}
		states[k] = st
	}
	return states, counts
}

// checkRecount fails the test unless the groups a subscriber folded,
// and Stat and Count of every group over sharedPools, equal a recount.
func checkRecount(t *testing.T, step int, m *Monitor, h *GroupStats, view subscriber) {
	t.Helper()
	want, counts := recount(m, h)
	if !reflect.DeepEqual(map[gid]groupState(view), want) {
		t.Fatalf("step %d: folded\n%v\nrecount\n%v", step, view, want)
	}
	for k, st := range want {
		got, ok := h.Stat(k.cfd, k.y, k.xkey)
		if !ok || (groupState{got.Support, got.Distinct, got.TopCount, got.Top}) != st || h.KeyOf(got.X) != k.xkey {
			t.Fatalf("step %d: Stat(%d, %d, %q) = %+v, %v; recount %+v", step, k.cfd, k.y, k.xkey, got, ok, st)
		}
		ai := m.Schema().MustIndex(m.Sigma()[k.cfd].RHS[k.y])
		for _, v := range sharedPools[ai] {
			if n := h.Count(k.cfd, k.y, k.xkey, v); n != counts[k][v] {
				t.Fatalf("step %d: Count(%d, %d, %v, %s) = %d, recount %d", step, k.cfd, k.y, got.X, v, n, counts[k][v])
			}
		}
	}
}

// constKey names one (CFD, key) pair, and constState its projection on
// the CFD's attributes and whether it constant-violates the CFD.
type constKey struct {
	cfd int
	key int64
}

type constState struct {
	proj      string
	violating bool
}

// constRecount is a brute-force constant-pattern check over m's
// snapshot: every live (CFD, key) with its projection on the CFD's
// attributes and whether some tableau row's X matches it while its Y
// does not.
func constRecount(m *Monitor) map[constKey]constState {
	schema := m.Schema()
	out := make(map[constKey]constState)
	rel, keys := m.Snapshot(), m.Keys()
	for i, tu := range rel.Tuples {
		for ci, cfd := range m.Sigma() {
			var proj []relation.Value
			for _, a := range cfd.Attrs() {
				proj = append(proj, tu[schema.MustIndex(a)])
			}
			st := constState{proj: relation.EncodeKey(proj)}
			for _, row := range cfd.Tableau {
				match := true
				for j, a := range cfd.LHS {
					match = match && row.X[j].Matches(tu[schema.MustIndex(a)])
				}
				for j, a := range cfd.RHS {
					st.violating = st.violating || match && !row.Y[j].Matches(tu[schema.MustIndex(a)])
				}
			}
			out[constKey{ci, keys[i]}] = st
		}
	}
	return out
}

// checkKeys drains h's key marks and fails the test unless every drained
// flag equals a constant recount, and every (CFD, key) that violated at
// the previous key drain (prev) or violates now, and whose status or
// projection changed in between, was drained. It returns the recount,
// the next call's prev.
func checkKeys(t *testing.T, step int, m *Monitor, h *GroupStats, prev map[constKey]constState) map[constKey]constState {
	t.Helper()
	drained := make(map[constKey]bool)
	h.DrainKeys(func(ci int, key int64, violating bool) { drained[constKey{ci, key}] = violating })
	now := constRecount(m)
	for k, v := range drained {
		if v != now[k].violating {
			t.Fatalf("step %d: CFD %d key %d drained violating=%v, recount %+v", step, k.cfd, k.key, v, now[k])
		}
	}
	for _, side := range []map[constKey]constState{prev, now} {
		for k := range side {
			was, is := prev[k], now[k]
			if _, ok := drained[k]; !ok && was != is && (was.violating || is.violating) {
				t.Fatalf("step %d: CFD %d key %d went %+v → %+v undrained", step, k.cfd, k.key, was, is)
			}
		}
	}
	return now
}

// TestGroupStatsMatchRecount drives a subscription through random
// ChangeSets, one row per Σ — sharedSigma, and sharedLHSSigma, whose
// CFDs on [AC] share an LHS but no RHS attribute — and checks after
// every drain that the deltas a subscriber folds, Stat and Count equal
// a brute-force recount of the snapshot; that every delta's Prev fields
// equal what the previous delta of its (group, attribute) reported; that
// a destroyed group's Stat misses; and that an update dirties exactly
// the (CFD, RHS attribute) slots whose CFD mentions the updated
// attribute on its LHS or as that RHS attribute, and a same-value update
// none. After every check its key drain (checkKeys) is held to a constant
// recount: each drained flag is the key's status, and no (CFD, key) that
// violated before or after a change of its status or projection is
// missed; the first key drain reports every violating key, and a
// same-value update drains no key. Half the drains take a write between their chunks, which lands
// before the later CFDs' groups are read, and a second drain hands over
// the rest. NM's 20 values grow distributions past the spill's linear
// range and keep NM's groups small, so deletes destroy them.
func TestGroupStatsMatchRecount(t *testing.T) {
	for _, tc := range []struct{ name, sigma string }{{"sigma", sharedSigma}, {"shared-lhs", sharedLHSSigma}} {
		t.Run(tc.name, func(t *testing.T) {
			schema := sharedSchema()
			sigma, err := core.ParseSet(tc.sigma)
			if err != nil {
				t.Fatal(err)
			}
			m, err := New(schema, sigma, Options{})
			if err != nil {
				t.Fatal(err)
			}
			gen := &opGen{rng: rand.New(rand.NewSource(7))}
			apply := func(ops []Op) {
				t.Helper()
				if _, err := m.Apply(changeSet(ops)); err != nil {
					t.Fatal(err)
				}
			}
			// Some state before the attach, so the first drain reports
			// groups no mark recorded.
			for range 4 {
				apply(gen.ops(schema, 30))
			}
			h := m.TrackGroups()
			view := make(subscriber)
			var consts map[constKey]constState
			drain := func(step int, write bool) []GroupDelta {
				t.Helper()
				var ds []GroupDelta
				h.DrainFunc(func(d *GroupDelta) {
					if write {
						write = false
						apply(gen.ops(schema, 30))
					}
					if msg := view.fold(d); msg != "" {
						t.Fatalf("step %d: %s", step, msg)
					}
					ds = append(ds, *d)
				})
				return ds
			}
			check := func(step int, ds []GroupDelta) {
				t.Helper()
				checkRecount(t, step, m, h, view)
				consts = checkKeys(t, step, m, h, consts)
				for _, d := range ds {
					if _, live := view[gid{d.CFD, d.Y, d.XKey}]; !live {
						if _, found := h.Stat(d.CFD, d.Y, d.XKey); found {
							t.Fatalf("step %d: Stat of destroyed group %v found it", step, d.X)
						}
					}
				}
			}
			settle := func(step int) {
				t.Helper()
				ds := drain(step, gen.rng.Intn(2) == 0)
				check(step, append(ds, drain(step, false)...))
			}
			mentions := func(d gid, attr string) bool {
				cfd := sigma[d.cfd]
				return cfd.RHS[d.y] == attr || slices.Contains(cfd.LHS, attr)
			}

			// The first drain always takes a write: the groups of the CFDs
			// after the first are marked while their first report waits.
			check(-1, append(drain(-1, true), drain(-1, false)...))
			for step := range 150 {
				// One to three ChangeSets per drain window, so deltas coalesce.
				for w := gen.rng.Intn(3); w >= 0; w-- {
					apply(gen.ops(schema, 30))
				}
				settle(step)
				if len(gen.live) == 0 {
					continue
				}

				// A key deleted and re-inserted within one window: the
				// groups that die with it are re-created, and drain death
				// first.
				key := gen.live[gen.rng.Intn(len(gen.live))]
				tu, _ := m.Get(key)
				apply([]Op{{Kind: OpDelete, Key: key}, {Kind: OpInsert, Key: key, Tuple: tu}})
				if gen.rng.Intn(2) == 0 {
					apply([]Op{{Kind: OpDelete, Key: key}})
					apply([]Op{{Kind: OpInsert, Key: key, Tuple: gen.tuple()}})
				}
				settle(step)
				if len(gen.live) == 0 {
					continue
				}

				// An update of one attribute dirties exactly the slots whose
				// CFD mentions it, a same-value update none. The settling
				// drain may have deleted key: pick again.
				key = gen.live[gen.rng.Intn(len(gen.live))]
				ai := gen.rng.Intn(len(sharedPools))
				attr := schema.Attrs[ai].Name
				tu, _ = m.Get(key)
				apply([]Op{{Kind: OpUpdate, Key: key, Attr: attr, Value: tu[ai]}})
				if ds := drain(step, false); len(ds) != 0 {
					t.Fatalf("step %d: same-value update of %s drained %d deltas", step, attr, len(ds))
				}
				if n := h.DrainKeys(func(int, int64, bool) {}); n != 0 {
					t.Fatalf("step %d: same-value update of %s drained %d keys", step, attr, n)
				}
				var nv relation.Value
				for nv = tu[ai]; nv == tu[ai]; {
					nv = sharedPools[ai][gen.rng.Intn(len(sharedPools[ai]))]
				}
				apply([]Op{{Kind: OpUpdate, Key: key, Attr: attr, Value: nv}})
				ds := drain(step, false)
				check(step, ds)
				touched := make(map[[2]int]bool)
				for _, d := range ds {
					if !mentions(gid{d.CFD, d.Y, ""}, attr) {
						t.Fatalf("step %d: update of %s drained CFD %d RHS %d", step, attr, d.CFD, d.Y)
					}
					touched[[2]int{d.CFD, d.Y}] = true
				}
				for ci, cfd := range sigma {
					for y := range cfd.RHS {
						if mentions(gid{ci, y, ""}, attr) && !touched[[2]int{ci, y}] {
							t.Fatalf("step %d: update of %s did not drain CFD %d RHS %d", step, attr, ci, y)
						}
					}
				}
			}
		})
	}
}

// TestSharedStatConcurrentReaders is TestStatConcurrentReaders with
// writers: Stat and Count run from several goroutines while writers
// apply and a drainer drains, all reading the monitor's own groups — a
// spill whose cached mode a delete dropped included, which a reader must
// rescan without rewriting (run it under -race). The drained deltas
// chain (each carries the previous one's state as its Prev fields) and
// fold to a recount.
func TestSharedStatConcurrentReaders(t *testing.T) {
	schema := sharedSchema()
	sigma, err := core.ParseSet(sharedSigma)
	if err != nil {
		t.Fatal(err)
	}
	rel := relation.New(schema)
	for _, ct := range []relation.Value{"MH", "NYC", "NYC", "MH", "MH", "MH"} {
		rel.MustInsert("212", ct, "a", "z1")
	}
	m, err := Load(rel, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := m.TrackGroups()
	if _, err := m.Delete(5); err != nil { // one MH: a tie, the cached mode dropped
		t.Fatal(err)
	}
	key := h.KeyOf([]relation.Value{"212"})

	view := make(subscriber)
	fold := func() {
		h.DrainFunc(func(d *GroupDelta) {
			if msg := view.fold(d); msg != "" {
				t.Error(msg)
			}
		})
	}

	const writers = 2
	done := make(chan struct{})
	var wg, rg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := &opGen{rng: rand.New(rand.NewSource(int64(w))), next: int64(1000 * (w + 1))}
			for range 150 {
				if _, err := m.Apply(changeSet(gen.ops(schema, 20))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for r := range 3 {
		rg.Add(1)
		go func() {
			defer rg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				xkey := key
				if rng.Intn(2) == 0 {
					xkey = h.KeyOf([]relation.Value{sharedPools[0][rng.Intn(3)]})
				}
				if st, ok := h.Stat(0, 0, xkey); ok && (st.TopCount < 1 || st.TopCount > st.Support || st.Distinct < 1 || st.Distinct > st.Support) {
					t.Errorf("Stat = %+v: not one group's state", st)
				}
				if n := h.Count(0, 0, xkey, "MH"); n < 0 {
					t.Errorf("Count = %d", n)
				}
			}
		}()
	}
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-done:
				return
			default:
				fold()
			}
		}
	}()
	wg.Wait()
	close(done)
	rg.Wait()
	fold()
	checkRecount(t, -1, m, h, view)
}

// TestReadProbesDoNotGrowPool: KeyOf, Count, MatchingRows and
// MatchingKeys with a value the monitor has never seen leave the value
// pool as it was: such a value equals no stored value and no pattern
// constant, so KeyOf names no group, Count is 0, MatchingKeys is empty
// and MatchingRows keeps only the rows with a wildcard there.
func TestReadProbesDoNotGrowPool(t *testing.T) {
	schema := sharedSchema()
	sigma, err := core.ParseSet(sharedSigma)
	if err != nil {
		t.Fatal(err)
	}
	rel := relation.New(schema)
	rel.MustInsert("908", "MH", "a", "z1")
	pool := relation.NewInterner()
	m, err := Load(rel, sigma, Options{Intern: pool})
	if err != nil {
		t.Fatal(err)
	}
	h := m.TrackGroups()
	n := pool.Len()
	if k := h.KeyOf([]relation.Value{"unseen-1"}); k != "" {
		t.Errorf("KeyOf(unseen) = %q, want no group's key", k)
	}
	if c := h.Count(0, 0, h.KeyOf([]relation.Value{"908"}), "unseen-2"); c != 0 {
		t.Errorf("Count(unseen) = %d, want 0", c)
	}
	// ParseSet merges the two [AC] CFDs into CFD 0, rows (_) and (908):
	// an unseen AC equals no constant, so only the wildcard row matches.
	if rows := m.MatchingRows(0, []relation.Value{"unseen-3"}); !slices.Equal(rows, []int{0}) {
		t.Errorf("MatchingRows(unseen) = %v, want the wildcard row [0]", rows)
	}
	keys, err := m.MatchingKeys([]string{"AC", "CT"}, []relation.Value{"908", "unseen-4"})
	if err != nil || len(keys) != 0 {
		t.Errorf("MatchingKeys(unseen) = %v, %v; want none", keys, err)
	}
	if got := pool.Len(); got != n {
		t.Errorf("read probes grew the value pool from %d to %d values", n, got)
	}
	// The seen values still answer.
	if rows := m.MatchingRows(0, []relation.Value{"908"}); !slices.Equal(rows, []int{0, 1}) {
		t.Errorf("MatchingRows(908) = %v, want [0 1]", rows)
	}
	if keys, _ := m.MatchingKeys([]string{"AC"}, []relation.Value{"908"}); len(keys) != 1 {
		t.Errorf("MatchingKeys(908) = %v, want key 0", keys)
	}
}

// TestDrainChunksSeeLaterWrites: a write that lands while a drain hands
// over its chunks reaches each group once. A group whose chunk was read
// before the write drains again at the next drain, Prev fields as first
// reported; a group read after the write carries it in this drain and
// not again. The first drain must fold the marks the apply made for
// groups it had not read yet.
func TestDrainChunksSeeLaterWrites(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sigma string
	}{{"shared", "[K] -> [V]"}} {
		t.Run(tc.name, func(t *testing.T) {
			schema := relation.MustSchema("R", relation.Attr("K"), relation.Attr("V"))
			sigma, err := core.ParseSet(tc.sigma)
			if err != nil {
				t.Fatal(err)
			}
			rel := relation.New(schema)
			const n = 3 * drainChunk
			for i := range n {
				rel.MustInsert(relation.Value("k"+strconv.Itoa(i)), "old")
			}
			m, err := Load(rel, sigma, Options{})
			if err != nil {
				t.Fatal(err)
			}
			h := m.TrackGroups()
			first := make(map[string]relation.Value)
			h.DrainFunc(func(d *GroupDelta) {
				if len(first) == 0 {
					cs := new(ChangeSet)
					for k := range int64(n) {
						cs.Update(k, "V", "new")
					}
					if _, err := m.Apply(cs); err != nil {
						t.Fatal(err)
					}
				}
				first[d.XKey] = d.Top
			})
			if len(first) != n {
				t.Fatalf("first drain reported %d groups, want %d", len(first), n)
			}
			old := 0
			for _, v := range first {
				if v == "old" {
					old++
				}
			}
			if old < 1 || old == n {
				t.Fatalf("%d of %d groups were read before the write; want the first chunk", old, n)
			}
			second := h.Drain(nil)
			for _, d := range second {
				if first[d.XKey] != "old" || d.Top != "new" || d.PrevSupport != 1 || d.PrevTopCount != 1 {
					t.Fatalf("second drain: %+v, first reported %s", d, first[d.XKey])
				}
			}
			if len(second) != old {
				t.Fatalf("second drain reported %d groups, want the %d read before the write", len(second), old)
			}
		})
	}
}
