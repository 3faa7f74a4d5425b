package incremental

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
)

// The tests of this file check the partitions a GroupStats shares with
// Σ's own groups (partition.cs != nil) against the partitions it owns.

// sharedSigma covers every pair of sharedPairs: each pair's X is a CFD's
// LHS and its A is in that CFD's RHS. The constant rows give the
// tableau something to select; they do not change the statistics.
const sharedSigma = `[AC] -> [CT, NM]
[AC=908] -> [CT=MH, NM]
[AC, CT] -> [ZIP]
[ZIP] -> [AC]
[NM] -> [ZIP]`

// sharedPairs are TestSharedPartitionsMatchRecount's pairs plus one on
// NM, whose 20 values keep its groups small, so deletes destroy them.
var sharedPairs = []AttrPair{
	{X: []string{"AC"}, A: "CT"},
	{X: []string{"AC"}, A: "NM"},
	{X: []string{"AC", "CT"}, A: "ZIP"},
	{X: []string{"ZIP"}, A: "AC"},
	{X: []string{"AC"}, A: "CT"},
	{X: []string{"NM"}, A: "ZIP"},
}

func sharedSchema() *relation.Schema {
	return relation.MustSchema("R", relation.Attr("AC"), relation.Attr("CT"), relation.Attr("NM"), relation.Attr("ZIP"))
}

// sharedPools are TestSharedPartitionsMatchRecount's value pools.
var sharedPools = [][]relation.Value{{"908", "212", "215"}, {"MH", "NYC"}, {"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m", "n", "o", "p", "q", "r", "s", "t"}, {"z1", "z2", "z3", "z4", "z5"}}

// opGen draws TestSharedPartitionsMatchRecount's op mix — inserts,
// deletes, and updates of a random attribute, so of X and of A alike —
// over explicit keys from its own range, so two monitors fed the same
// ops store the same tuples under the same keys.
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

// byGroup orders a drain by (pair, group), keeping the order of one
// group's deltas — a death before its re-creation.
func byGroup(ds []GroupDelta) []GroupDelta {
	slices.SortStableFunc(ds, func(a, b GroupDelta) int {
		return cmp.Or(cmp.Compare(a.Pair, b.Pair), strings.Compare(a.XKey, b.XKey))
	})
	return ds
}

// TestSharedStoreMatchesOwned: the same pairs tracked on a monitor whose
// Σ covers them (every partition shared) and on a Σ-less twin (every
// partition owned), fed the same random op streams, drain the same
// deltas — as a multiset per drain, one group's deltas in order — and
// answer the same Stat, Count and KeyOf. The two monitors share one
// value pool, so XKeys compare directly.
func TestSharedStoreMatchesOwned(t *testing.T) {
	schema := sharedSchema()
	sigma, err := core.ParseSet(sharedSigma)
	if err != nil {
		t.Fatal(err)
	}
	pool := relation.NewInterner()
	ms, err := New(schema, sigma, Options{Intern: pool})
	if err != nil {
		t.Fatal(err)
	}
	mo, err := New(schema, nil, Options{Intern: pool})
	if err != nil {
		t.Fatal(err)
	}
	gen := &opGen{rng: rand.New(rand.NewSource(11))}
	apply := func(ops []Op) {
		t.Helper()
		for _, m := range []*Monitor{ms, mo} {
			if _, err := m.Apply(changeSet(ops)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Some state before the attach, so the first drain reports groups
	// the attach did not fold.
	for range 4 {
		apply(gen.ops(schema, 30))
	}
	hs, err := ms.TrackGroups(sharedPairs)
	if err != nil {
		t.Fatal(err)
	}
	ho, err := mo.TrackGroups(sharedPairs)
	if err != nil {
		t.Fatal(err)
	}
	for part := range hs.parts {
		if hs.parts[part].cs == nil || ho.parts[part].cs != nil {
			t.Fatalf("partition %d: shared %v on the Σ monitor, %v on the twin; want shared, owned",
				part, hs.parts[part].cs != nil, ho.parts[part].cs != nil)
		}
	}

	type gid struct {
		pair int
		xkey string
	}
	live := make(map[gid][]relation.Value)
	drain := func(step int) {
		t.Helper()
		ds, do := byGroup(hs.Drain(nil)), byGroup(ho.Drain(nil))
		if !reflect.DeepEqual(ds, do) {
			t.Fatalf("step %d: shared drain\n%+v\nowned drain\n%+v", step, ds, do)
		}
		for _, d := range do {
			if d.Support == 0 {
				delete(live, gid{d.Pair, d.XKey})
			} else {
				live[gid{d.Pair, d.XKey}] = d.X
			}
		}
		for _, d := range do {
			if _, ok := live[gid{d.Pair, d.XKey}]; !ok {
				if _, found := hs.Stat(d.Pair, d.XKey); found {
					t.Fatalf("step %d: Stat of destroyed group %v found it", step, d.X)
				}
			}
		}
		for k, x := range live {
			a, aok := hs.Stat(k.pair, k.xkey)
			b, bok := ho.Stat(k.pair, k.xkey)
			if !aok || !reflect.DeepEqual(a, b) {
				t.Fatalf("step %d: pair %d Stat(%v) = %+v, %v; owned %+v, %v", step, k.pair, x, a, aok, b, bok)
			}
			if ks, ko := hs.KeyOf(x), ho.KeyOf(x); ks != k.xkey || ko != k.xkey {
				t.Fatalf("step %d: KeyOf(%v) = %q shared, %q owned, want %q", step, x, ks, ko, k.xkey)
			}
			ai, _ := schema.Index(sharedPairs[k.pair].A)
			for _, v := range sharedPools[ai] {
				if a, b := hs.Count(k.pair, k.xkey, v), ho.Count(k.pair, k.xkey, v); a != b {
					t.Fatalf("step %d: pair %d Count(%v, %s) = %d, owned %d", step, k.pair, x, v, a, b)
				}
			}
		}
	}

	drain(-1)
	for step := 0; step < 200; step++ {
		// One to three ChangeSets per drain window, so deltas coalesce.
		for w := gen.rng.Intn(3); w >= 0; w-- {
			apply(gen.ops(schema, 30))
		}
		if step%3 == 0 && len(gen.live) > 0 {
			// A key deleted and re-inserted in one window: the groups that
			// die with it are re-created, and drain death first.
			key := gen.live[gen.rng.Intn(len(gen.live))]
			tu, _ := mo.Get(key)
			apply([]Op{{Kind: OpDelete, Key: key}, {Kind: OpInsert, Key: key, Tuple: tu}})
			apply([]Op{{Kind: OpDelete, Key: key}})
			apply([]Op{{Kind: OpInsert, Key: key, Tuple: gen.tuple()}})
		}
		drain(step)
	}
}

// TestSharedStatConcurrentReaders is TestStatConcurrentReaders over
// pairs Σ covers: Stat and Count run from several goroutines while
// writers apply and a drainer drains, all reading the monitor's own
// groups — a spill whose cached mode a delete dropped included, which a
// reader must rescan without rewriting (run it under -race). The
// drained deltas chain (each carries the previous one's state as its
// Prev fields) and fold to a fresh recount.
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
	h, err := m.TrackGroups(sharedPairs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Delete(5); err != nil { // one MH: a tie, the cached mode dropped
		t.Fatal(err)
	}
	key := h.KeyOf([]relation.Value{"212"})

	type gid struct {
		pair int
		xkey string
	}
	view := make(map[gid]groupState)
	fold := func() {
		for _, d := range h.Drain(nil) {
			k := gid{d.Pair, d.XKey}
			prev := view[k]
			if d.PrevSupport != prev.Support || d.PrevDistinct != prev.Distinct || d.PrevTopCount != prev.TopCount {
				t.Errorf("pair %d delta %+v: Prev %d/%d/%d, last drained %+v",
					d.Pair, d.X, d.PrevSupport, d.PrevDistinct, d.PrevTopCount, prev)
			}
			if d.Support == 0 {
				delete(view, k)
			} else {
				view[k] = groupState{d.Support, d.Distinct, d.TopCount, d.Top}
			}
		}
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
				if st, ok := h.Stat(0, xkey); ok && (st.TopCount < 1 || st.TopCount > st.Support || st.Distinct < 1 || st.Distinct > st.Support) {
					t.Errorf("Stat = %+v: not one group's state", st)
				}
				if n := h.Count(0, xkey, "MH"); n < 0 {
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
	for pi, p := range sharedPairs {
		want, _ := recount(t, m, p)
		got := make(map[string]groupState)
		for k, st := range view {
			if k.pair == pi {
				got[k.xkey] = st
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pair %d %v folded\n%v\nrecount\n%v", pi, p, got, want)
		}
	}
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
	h, err := m.TrackGroups(sharedPairs)
	if err != nil {
		t.Fatal(err)
	}
	n := pool.Len()
	if k := h.KeyOf([]relation.Value{"unseen-1"}); k != "" {
		t.Errorf("KeyOf(unseen) = %q, want no group's key", k)
	}
	if c := h.Count(0, h.KeyOf([]relation.Value{"908"}), "unseen-2"); c != 0 {
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
// not again. A shared partition's first drain must fold the marks the
// apply made for groups it had not read yet; an owned partition keeps
// the same contract.
func TestDrainChunksSeeLaterWrites(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sigma string
	}{{"shared", "[K] -> [V]"}, {"owned", ""}} {
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
			h, err := m.TrackGroups([]AttrPair{{X: []string{"K"}, A: "V"}})
			if err != nil {
				t.Fatal(err)
			}
			if shared := h.parts[0].cs != nil; shared != (tc.name == "shared") {
				t.Fatalf("partition shared = %v", shared)
			}
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
