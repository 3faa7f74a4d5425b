package incremental

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/relation"
)

func statsSchema(t *testing.T) *relation.Schema {
	t.Helper()
	return relation.MustSchema("R", relation.Attr("AC"), relation.Attr("CT"), relation.Attr("NM"))
}

// drainMap drains the subscription into a map keyed by (pair, xkey) for
// order-independent assertions.
func drainMap(h *GroupStats) map[[2]string]GroupDelta {
	out := make(map[[2]string]GroupDelta)
	for _, d := range h.Drain(nil) {
		out[[2]string{h.Pair(d.Pair).A, d.XKey}] = d
	}
	return out
}

func TestTrackGroupsFoldsExistingInstance(t *testing.T) {
	schema := statsSchema(t)
	rel := relation.New(schema)
	rel.MustInsert("908", "MH", "Mike")
	rel.MustInsert("908", "MH", "Rick")
	rel.MustInsert("908", "NYC", "Eve")
	rel.MustInsert("212", "NYC", "Joe")
	m, err := Load(rel, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.TrackGroups([]AttrPair{{X: []string{"AC"}, A: "CT"}})
	if err != nil {
		t.Fatal(err)
	}
	ds := drainMap(h)
	if len(ds) != 2 {
		t.Fatalf("drained %d deltas, want 2 groups", len(ds))
	}
	k908 := h.KeyOf([]relation.Value{"908"})
	d := ds[[2]string{"CT", k908}]
	if d.Support != 3 || d.Distinct != 2 {
		t.Errorf("908 group = support %d distinct %d, want 3/2", d.Support, d.Distinct)
	}
	st, ok := h.Stat(0, k908)
	if !ok || st.Top != "MH" || st.TopCount != 2 {
		t.Errorf("Stat(908) = %+v ok=%v, want top MH count 2", st, ok)
	}
	k212 := h.KeyOf([]relation.Value{"212"})
	d = ds[[2]string{"CT", k212}]
	if d.Support != 1 || d.Distinct != 1 || d.Top != "NYC" || d.TopCount != 1 {
		t.Errorf("212 group = %+v, want support 1, top NYC", d)
	}
	// A second drain with no mutations is empty.
	if more := h.Drain(nil); len(more) != 0 {
		t.Errorf("idle drain returned %d deltas", len(more))
	}
}

func TestGroupDeltasFollowMutations(t *testing.T) {
	schema := statsSchema(t)
	m, err := New(schema, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.TrackGroups([]AttrPair{{X: []string{"AC"}, A: "CT"}, {X: []string{"CT"}, A: "AC"}})
	if err != nil {
		t.Fatal(err)
	}
	h.Drain(nil)

	key, _, err := m.Insert(relation.Tuple{"908", "MH", "Mike"})
	if err != nil {
		t.Fatal(err)
	}
	ds := drainMap(h)
	k908 := h.KeyOf([]relation.Value{"908"})
	if d := ds[[2]string{"CT", k908}]; d.Support != 1 || d.Distinct != 1 || d.Top != "MH" {
		t.Errorf("after insert: %+v", d)
	}
	if len(ds) != 2 {
		t.Errorf("insert touched %d groups, want one per pair", len(ds))
	}

	// Updating NM touches neither pair: no deltas at all.
	if _, err := m.Update(key, "NM", "Michael"); err != nil {
		t.Fatal(err)
	}
	if ds := h.Drain(nil); len(ds) != 0 {
		t.Errorf("NM update produced %d deltas, want 0", len(ds))
	}

	// Updating CT touches both pairs: the AC group's distribution moves,
	// the old CT group dies and a new one is born.
	if _, err := m.Update(key, "CT", "NYC"); err != nil {
		t.Fatal(err)
	}
	ds = drainMap(h)
	if d := ds[[2]string{"CT", k908}]; d.Support != 1 || d.Top != "NYC" {
		t.Errorf("AC group after CT update: %+v", d)
	}
	kMH := h.KeyOf([]relation.Value{"MH"})
	if d, ok := ds[[2]string{"AC", kMH}]; !ok || d.Support != 0 {
		t.Errorf("old CT group should be reported destroyed, got %+v (ok=%v)", d, ok)
	}
	kNYC := h.KeyOf([]relation.Value{"NYC"})
	if d := ds[[2]string{"AC", kNYC}]; d.Support != 1 || d.Top != "908" {
		t.Errorf("new CT group: %+v", d)
	}

	// Deleting the only member destroys every group.
	if _, err := m.Delete(key); err != nil {
		t.Fatal(err)
	}
	ds = drainMap(h)
	if d := ds[[2]string{"CT", k908}]; d.Support != 0 || fmt.Sprint(d.X) != "[908]" {
		t.Errorf("destroyed group delta = %+v, want Support 0 and X [908]", d)
	}
	if _, ok := h.Stat(0, k908); ok {
		t.Error("Stat on a destroyed group must miss")
	}
}

func TestGroupStatsBatchCoalesces(t *testing.T) {
	schema := statsSchema(t)
	m, err := New(schema, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.TrackGroups([]AttrPair{{X: []string{"AC"}, A: "CT"}})
	if err != nil {
		t.Fatal(err)
	}
	var cs ChangeSet
	for i := 0; i < 100; i++ {
		cs.Insert(relation.Tuple{"908", "MH", "x"})
	}
	if _, err := m.Apply(&cs); err != nil {
		t.Fatal(err)
	}
	ds := h.Drain(nil)
	if len(ds) != 1 {
		t.Fatalf("100 same-group ops drained as %d deltas, want 1", len(ds))
	}
	if ds[0].Support != 100 || ds[0].Distinct != 1 || ds[0].TopCount != 100 {
		t.Errorf("coalesced delta = %+v", ds[0])
	}
}

// TestSupportChangeDeltasEveryPair pins the delivery contract of
// GroupDelta that the repair Suggester's re-plan rule rests on: a change
// in a group's support yields a delta for every pair tracked under its
// X, an update of an attribute outside X only for that attribute's
// pairs.
func TestSupportChangeDeltasEveryPair(t *testing.T) {
	m, err := New(statsSchema(t), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.TrackGroups([]AttrPair{{X: []string{"AC"}, A: "CT"}, {X: []string{"AC"}, A: "NM"}})
	if err != nil {
		t.Fatal(err)
	}
	var seed ChangeSet
	seed.Insert(relation.Tuple{"908", "MH", "Mike"})
	seed.Insert(relation.Tuple{"908", "MH", "Rick"})
	seed.Insert(relation.Tuple{"212", "NYC", "Joe"})
	if _, err := m.Apply(&seed); err != nil {
		t.Fatal(err)
	}
	h.Drain(nil)
	k908, k212 := h.KeyOf([]relation.Value{"908"}), h.KeyOf([]relation.Value{"212"})

	// An insert into 908: CT keeps its one value, yet its pair gets a
	// delta as well as NM's.
	key, _, err := m.Insert(relation.Tuple{"908", "MH", "Eve"})
	if err != nil {
		t.Fatal(err)
	}
	ds := drainMap(h)
	if len(ds) != 2 {
		t.Fatalf("insert drained %d deltas, want one per pair: %+v", len(ds), ds)
	}
	if d, ok := ds[[2]string{"CT", k908}]; !ok || d.Support != 3 || d.PrevSupport != 2 || d.Distinct != 1 || d.PrevDistinct != 1 {
		t.Errorf("CT delta after insert = %+v (ok=%v), want support 2→3 with one value", d, ok)
	}
	if d, ok := ds[[2]string{"NM", k908}]; !ok || d.Support != 3 || d.Distinct != 3 || d.PrevDistinct != 2 {
		t.Errorf("NM delta after insert = %+v (ok=%v), want support 3, distinct 2→3", d, ok)
	}

	// An NM update keeps the support: only NM's pair moves.
	if _, err := m.Update(key, "NM", "Ann"); err != nil {
		t.Fatal(err)
	}
	ds = drainMap(h)
	if _, ok := ds[[2]string{"NM", k908}]; len(ds) != 1 || !ok {
		t.Errorf("NM update drained %+v, want the NM pair's 908 delta alone", ds)
	}

	// An AC update moves the tuple from 908 to 212: both groups change
	// support, so both pairs drain both groups.
	if _, err := m.Update(key, "AC", "212"); err != nil {
		t.Fatal(err)
	}
	ds = drainMap(h)
	if len(ds) != 4 {
		t.Fatalf("AC update drained %d deltas, want 2 pairs × 2 groups: %+v", len(ds), ds)
	}
	for _, a := range []string{"CT", "NM"} {
		if d := ds[[2]string{a, k908}]; d.Support != 2 || d.PrevSupport != 3 {
			t.Errorf("%s delta of 908 = %+v, want support 3→2", a, d)
		}
		if d := ds[[2]string{a, k212}]; d.Support != 2 || d.PrevSupport != 1 {
			t.Errorf("%s delta of 212 = %+v, want support 1→2", a, d)
		}
	}
}

// TestStatGroupDistribution drives the inline-slot/spill-map layout
// through adds and removes, checking distinct and top at every step.
func TestStatGroupDistribution(t *testing.T) {
	in := relation.NewInterner()
	// Intern "b" first so its ID is SMALLER than "a"'s: the value-based
	// tie-break below must still pick "a", proving top compares values,
	// not arrival-ordered IDs.
	b, a := in.ID("b"), in.ID("a")
	g := &statGroup{}
	check := func(wantDistinct int, wantTop relation.Value, wantN int) {
		t.Helper()
		if d := g.distinct(); d != wantDistinct {
			t.Fatalf("distinct = %d, want %d", d, wantDistinct)
		}
		top, n := g.top(in)
		got := relation.Value("")
		if n > 0 {
			got = in.ByID(top)
		}
		if got != wantTop || n != wantN {
			t.Fatalf("top = %q/%d, want %q/%d", got, n, wantTop, wantN)
		}
	}
	g.add(b)
	g.add(b)
	check(1, "b", 2)
	g.add(a)
	check(2, "b", 2) // counts beat values
	g.add(a)
	check(2, "a", 2) // tie broken toward the smaller value
	g.remove(b)
	g.remove(b) // inline slot dies, spill survives
	check(1, "a", 2)
	g.add(b) // dead slot's value re-enters via the spill map
	check(2, "a", 2)
	g.remove(a)
	g.remove(a)
	check(1, "b", 1)
	if g.size != 1 {
		t.Fatalf("size = %d, want 1", g.size)
	}
	g.remove(b)
	check(0, "", 0)
}

func TestTrackGroupsValidation(t *testing.T) {
	m, err := New(statsSchema(t), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TrackGroups([]AttrPair{{X: []string{"nope"}, A: "CT"}}); err == nil {
		t.Error("unknown X attribute must be rejected")
	}
	if _, err := m.TrackGroups([]AttrPair{{X: []string{"AC"}, A: "nope"}}); err == nil {
		t.Error("unknown A attribute must be rejected")
	}
}

func TestUntrackGroupsStopsUpdates(t *testing.T) {
	m, err := New(statsSchema(t), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.TrackGroups([]AttrPair{{X: []string{"AC"}, A: "CT"}})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := m.TrackGroups([]AttrPair{{X: []string{"CT"}, A: "AC"}})
	if err != nil {
		t.Fatal(err)
	}
	m.UntrackGroups(h)
	if _, _, err := m.Insert(relation.Tuple{"908", "MH", "Mike"}); err != nil {
		t.Fatal(err)
	}
	if ds := h.Drain(nil); len(ds) != 0 {
		t.Errorf("untracked subscription drained %d deltas", len(ds))
	}
	if ds := h2.Drain(nil); len(ds) != 1 {
		t.Errorf("surviving subscription drained %d deltas, want 1", len(ds))
	}
}

// TestMultiAttrPairKeys: a two-attribute X routes and keys correctly.
func TestMultiAttrPairKeys(t *testing.T) {
	m, err := New(statsSchema(t), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.TrackGroups([]AttrPair{{X: []string{"AC", "CT"}, A: "NM"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, nm := range []string{"Mike", "Rick"} {
		if _, _, err := m.Insert(relation.Tuple{"908", "MH", nm}); err != nil {
			t.Fatal(err)
		}
	}
	ds := h.Drain(nil)
	if len(ds) != 1 {
		t.Fatalf("drained %d deltas, want 1", len(ds))
	}
	want := h.KeyOf([]relation.Value{"908", "MH"})
	if ds[0].XKey != want || ds[0].Support != 2 || ds[0].Distinct != 2 {
		t.Errorf("delta = %+v, want key %q support 2 distinct 2", ds[0], want)
	}
	xs := append([]relation.Value(nil), ds[0].X...)
	sort.Strings(xs)
	if len(xs) != 2 || xs[0] != "908" || xs[1] != "MH" {
		t.Errorf("X = %v", ds[0].X)
	}
}

// groupState is one group's drained statistics, as a subscriber would
// hold them.
type groupState struct {
	Support, Distinct, TopCount int
	Top                         relation.Value
}

// recount returns pair's live groups by XKey, from a fresh subscription
// tracking that pair alone — nothing shared with anything — after
// checking it against a brute-force count over the instance.
func recount(t *testing.T, m *Monitor, pair AttrPair) (map[string]groupState, *GroupStats) {
	t.Helper()
	h, err := m.TrackGroups([]AttrPair{pair})
	if err != nil {
		t.Fatal(err)
	}
	m.UntrackGroups(h)
	out := make(map[string]groupState)
	for _, d := range h.Drain(nil) {
		out[d.XKey] = groupState{d.Support, d.Distinct, d.TopCount, d.Top}
	}

	xIdx, _ := m.Schema().Indexes(pair.X)
	ai, _ := m.Schema().Index(pair.A)
	counts := make(map[string]map[relation.Value]int)
	for _, tu := range m.Snapshot().Tuples {
		x := make([]relation.Value, len(xIdx))
		for i, j := range xIdx {
			x[i] = tu[j]
		}
		k := h.KeyOf(x)
		if counts[k] == nil {
			counts[k] = make(map[relation.Value]int)
		}
		counts[k][tu[ai]]++
	}
	brute := make(map[string]groupState)
	for k, dist := range counts {
		st := groupState{Distinct: len(dist)}
		for v, c := range dist {
			st.Support += c
			if c > st.TopCount || (c == st.TopCount && v < st.Top) {
				st.Top, st.TopCount = v, c
			}
		}
		brute[k] = st
	}
	if !reflect.DeepEqual(out, brute) {
		t.Fatalf("fresh TrackGroups(%v) drained\n%v\nbrute force\n%v", pair, out, brute)
	}
	return out, h
}

// TestSharedPartitionsMatchRecount drives one subscription whose pairs
// share partitions — two pairs on X = AC, a repeated pair, a
// two-attribute X and an unshared X; NM's wide pool grows distributions
// past the spill's linear range — through random ChangeSets and
// checks, after every drain, that sharing is invisible: the deltas
// folded by a subscriber, Stat and Count all equal a fresh per-pair
// recount, every delta's Prev fields equal what that pair last drained
// for the group, and an update dirties only the pairs that mention its
// attribute.
// TestStatConcurrentReaders: Stat may rescan a distribution whose cached
// top a delete dropped, and the rescan rewrites the cache — so two
// concurrent Stat calls on that group must not race (run it under -race).
func TestStatConcurrentReaders(t *testing.T) {
	schema := statsSchema(t)
	rel := relation.New(schema)
	for _, ct := range []relation.Value{"a", "b", "b", "c", "c", "c"} {
		rel.MustInsert("908", ct, "n")
	}
	m, err := Load(rel, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.TrackGroups([]AttrPair{{X: []string{"AC"}, A: "CT"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Delete(5); err != nil { // one c: the cached top is dropped
		t.Fatal(err)
	}
	key := h.KeyOf([]relation.Value{"908"})
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, ok := h.Stat(0, key)
			if !ok || st.Support != 5 || st.TopCount != 2 || st.Top != "b" {
				t.Errorf("Stat(908) = %+v ok=%v, want support 5, top b with 2 (tie with c)", st, ok)
			}
		}()
	}
	wg.Wait()
}

func TestSharedPartitionsMatchRecount(t *testing.T) {
	schema := relation.MustSchema("R", relation.Attr("AC"), relation.Attr("CT"), relation.Attr("NM"), relation.Attr("ZIP"))
	pools := [][]relation.Value{{"908", "212", "215"}, {"MH", "NYC"}, {"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m", "n", "o", "p", "q", "r", "s", "t"}, {"z1", "z2", "z3", "z4", "z5"}}
	pairs := []AttrPair{
		{X: []string{"AC"}, A: "CT"},
		{X: []string{"AC"}, A: "NM"},
		{X: []string{"AC", "CT"}, A: "ZIP"},
		{X: []string{"ZIP"}, A: "AC"},
		{X: []string{"AC"}, A: "CT"},
	}
	mentions := func(p AttrPair, attr string) bool { return p.A == attr || slices.Contains(p.X, attr) }

	m, err := New(schema, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.TrackGroups(pairs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	randTuple := func() relation.Tuple {
		tu := make(relation.Tuple, len(pools))
		for i, pool := range pools {
			tu[i] = pool[rng.Intn(len(pool))]
		}
		return tu
	}

	// view is the subscriber side: every pair's groups as folded from
	// the drained deltas.
	type gid struct {
		pair int
		xkey string
	}
	view := make(map[gid]groupState)
	drain := func(step int) []GroupDelta {
		t.Helper()
		ds := h.Drain(nil)
		for _, d := range ds {
			k := gid{d.Pair, d.XKey}
			prev := view[k]
			if d.PrevSupport != prev.Support || d.PrevDistinct != prev.Distinct || d.PrevTopCount != prev.TopCount {
				t.Fatalf("step %d: pair %d delta %+v carries Prev %d/%d/%d, last drained %+v",
					step, d.Pair, d, d.PrevSupport, d.PrevDistinct, d.PrevTopCount, prev)
			}
			if d.Support == 0 {
				delete(view, k)
			} else {
				view[k] = groupState{d.Support, d.Distinct, d.TopCount, d.Top}
			}
		}
		for pi, p := range pairs {
			want, fresh := recount(t, m, p)
			got := make(map[string]groupState)
			for k, st := range view {
				if k.pair == pi {
					got[k.xkey] = st
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: pair %d %v folded\n%v\nrecount\n%v", step, pi, p, got, want)
			}
			for xkey := range want {
				a, _ := h.Stat(pi, xkey)
				b, _ := fresh.Stat(0, xkey)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("step %d: pair %d Stat(%q) = %+v, recount %+v", step, pi, xkey, a, b)
				}
				ai, _ := schema.Index(p.A)
				for _, v := range pools[ai] {
					if a, b := h.Count(pi, xkey, v), fresh.Count(0, xkey, v); a != b {
						t.Fatalf("step %d: pair %d Count(%q, %s) = %d, recount %d", step, pi, xkey, v, a, b)
					}
				}
			}
		}
		return ds
	}

	var live []int64
	apply := func(cs *ChangeSet) {
		t.Helper()
		if _, err := m.Apply(cs); err != nil {
			t.Fatal(err)
		}
		for _, op := range cs.Ops {
			if op.Kind == OpInsert && !op.keyed {
				live = append(live, op.Key)
			}
		}
	}
	for step := 0; step < 60; step++ {
		// One to three ChangeSets per drain window, so deltas coalesce.
		for w := rng.Intn(3); w >= 0; w-- {
			var cs ChangeSet
			for n := rng.Intn(8) + 1; n > 0; n-- {
				switch op := rng.Intn(10); {
				case op < 4 || len(live) == 0:
					cs.Insert(randTuple())
				case op < 6:
					i := rng.Intn(len(live))
					cs.Delete(live[i])
					live = append(live[:i], live[i+1:]...)
				default:
					ai := rng.Intn(len(pools))
					cs.Update(live[rng.Intn(len(live))], schema.Attrs[ai].Name, pools[ai][rng.Intn(len(pools[ai]))])
				}
			}
			apply(&cs)
		}
		drain(step)

		if len(live) == 0 {
			continue
		}
		// A key deleted and re-inserted within one window: its groups
		// that die with it are re-created, and drain as two deltas.
		key := live[rng.Intn(len(live))]
		tu, _ := m.Get(key)
		var cs ChangeSet
		cs.Delete(key).InsertKeyed(key, tu)
		apply(&cs)
		if rng.Intn(2) == 0 {
			apply(new(ChangeSet).Delete(key))
			apply(new(ChangeSet).InsertKeyed(key, randTuple()))
		}
		drain(step)

		// An update of one attribute dirties only the pairs that mention
		// it; a same-value update dirties nothing.
		ai := rng.Intn(len(pools))
		attr := schema.Attrs[ai].Name
		tu, _ = m.Get(key)
		apply(new(ChangeSet).Update(key, attr, tu[ai]))
		if ds := drain(step); len(ds) != 0 {
			t.Fatalf("step %d: same-value update of %s drained %d deltas", step, attr, len(ds))
		}
		var nv relation.Value
		for nv = tu[ai]; nv == tu[ai]; {
			nv = pools[ai][rng.Intn(len(pools[ai]))]
		}
		apply(new(ChangeSet).Update(key, attr, nv))
		touched := make(map[int]bool)
		for _, d := range drain(step) {
			if !mentions(pairs[d.Pair], attr) {
				t.Fatalf("step %d: update of %s drained pair %d %v", step, attr, d.Pair, pairs[d.Pair])
			}
			touched[d.Pair] = true
		}
		for pi, p := range pairs {
			if mentions(p, attr) && !touched[pi] {
				t.Fatalf("step %d: update of %s did not drain pair %d %v", step, attr, pi, p)
			}
		}
	}
}

// TestStatGroupSpill drives one distribution through random adds
// and removes over a few or many distinct values — its spill table
// grows and drains, its cached mode is kept, dropped and rescanned;
// ties are settled after each add the way the fold does, or left to
// top, which then sees several adds at once — and checks distinct,
// count and top against a brute-force tally.
func TestStatGroupSpill(t *testing.T) {
	for _, tc := range []struct {
		values int
		settle bool
	}{{40, true}, {40, false}, {6, true}, {6, false}} {
		settle := tc.settle
		in := relation.NewInterner()
		ids := make([]uint32, tc.values)
		for i := range ids {
			// Reverse interning order, so ID order disagrees with value order.
			ids[i] = in.ID(relation.Value(fmt.Sprintf("v%02d", len(ids)-1-i)))
		}
		rng := rand.New(rand.NewSource(3))
		g := &statGroup{}
		want := make(map[uint32]int)
		var members []uint32
		for step := 0; step < 4000; step++ {
			if len(members) > 0 && rng.Intn(5) < 2 {
				i := rng.Intn(len(members))
				v := members[i]
				members = append(members[:i], members[i+1:]...)
				g.remove(v)
				if want[v]--; want[v] == 0 {
					delete(want, v)
				}
			} else {
				v := ids[rng.Intn(len(ids))]
				members = append(members, v)
				g.add(v)
				if settle {
					g.settle(in)
				}
				want[v]++
			}
			if !settle && rng.Intn(8) > 0 {
				continue
			}
			var top uint32
			n := 0
			for v, c := range want {
				if c > n || (c == n && in.ByID(v) < in.ByID(top)) {
					top, n = v, c
				}
			}
			gotTop, gotN := g.top(in)
			if g.distinct() != len(want) || gotN != n || (n > 0 && gotTop != top) {
				t.Fatalf("%+v step %d: distinct %d top %s/%d, want %d %s/%d",
					tc, step, g.distinct(), in.ByID(gotTop), gotN, len(want), in.ByID(top), n)
			}
			for v, c := range want {
				if got := g.count(v); got != c {
					t.Fatalf("%+v step %d: count(%s) = %d, want %d", tc, step, in.ByID(v), got, c)
				}
			}
		}
	}
}
