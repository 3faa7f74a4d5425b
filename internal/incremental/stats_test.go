package incremental

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
)

func statsSchema(t *testing.T) *relation.Schema {
	t.Helper()
	return relation.MustSchema("R", relation.Attr("AC"), relation.Attr("CT"), relation.Attr("NM"))
}

// statsMonitor is an empty monitor over statsSchema under the given Σ.
func statsMonitor(t *testing.T, sigma string) *Monitor {
	t.Helper()
	cfds, err := core.ParseSet(sigma)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(statsSchema(t), cfds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// drainMap drains the subscription into a map keyed by (CFD, RHS
// position, xkey) for order-independent assertions.
func drainMap(h *GroupStats) map[gid]GroupDelta {
	out := make(map[gid]GroupDelta)
	for _, d := range h.Drain(nil) {
		out[gid{d.CFD, d.Y, d.XKey}] = d
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
	sigma, err := core.ParseSet("[AC] -> [CT]")
	if err != nil {
		t.Fatal(err)
	}
	m, err := Load(rel, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := m.TrackGroups()
	ds := drainMap(h)
	if len(ds) != 2 {
		t.Fatalf("drained %d deltas, want 2 groups", len(ds))
	}
	k908 := h.KeyOf([]relation.Value{"908"})
	d := ds[gid{0, 0, k908}]
	if d.Support != 3 || d.Distinct != 2 {
		t.Errorf("908 group = support %d distinct %d, want 3/2", d.Support, d.Distinct)
	}
	st, ok := h.Stat(0, 0, k908)
	if !ok || st.Top != "MH" || st.TopCount != 2 {
		t.Errorf("Stat(908) = %+v ok=%v, want top MH count 2", st, ok)
	}
	k212 := h.KeyOf([]relation.Value{"212"})
	d = ds[gid{0, 0, k212}]
	if d.Support != 1 || d.Distinct != 1 || d.Top != "NYC" || d.TopCount != 1 {
		t.Errorf("212 group = %+v, want support 1, top NYC", d)
	}
	// A second drain with no mutations is empty.
	if more := h.Drain(nil); len(more) != 0 {
		t.Errorf("idle drain returned %d deltas", len(more))
	}
}

func TestGroupDeltasFollowMutations(t *testing.T) {
	m := statsMonitor(t, "[AC] -> [CT]\n[CT] -> [AC]")
	h := m.TrackGroups()
	h.Drain(nil)

	key, _, err := m.Insert(relation.Tuple{"908", "MH", "Mike"})
	if err != nil {
		t.Fatal(err)
	}
	ds := drainMap(h)
	k908 := h.KeyOf([]relation.Value{"908"})
	if d := ds[gid{0, 0, k908}]; d.Support != 1 || d.Distinct != 1 || d.Top != "MH" {
		t.Errorf("after insert: %+v", d)
	}
	if len(ds) != 2 {
		t.Errorf("insert touched %d groups, want one per CFD", len(ds))
	}

	// Updating NM touches neither CFD: no deltas at all.
	if _, err := m.Update(key, "NM", "Michael"); err != nil {
		t.Fatal(err)
	}
	if ds := h.Drain(nil); len(ds) != 0 {
		t.Errorf("NM update produced %d deltas, want 0", len(ds))
	}

	// Updating CT touches both CFDs: the AC group's distribution moves,
	// the old CT group dies and a new one is born.
	if _, err := m.Update(key, "CT", "NYC"); err != nil {
		t.Fatal(err)
	}
	ds = drainMap(h)
	if d := ds[gid{0, 0, k908}]; d.Support != 1 || d.Top != "NYC" {
		t.Errorf("AC group after CT update: %+v", d)
	}
	kMH := h.KeyOf([]relation.Value{"MH"})
	if d, ok := ds[gid{1, 0, kMH}]; !ok || d.Support != 0 {
		t.Errorf("old CT group should be reported destroyed, got %+v (ok=%v)", d, ok)
	}
	kNYC := h.KeyOf([]relation.Value{"NYC"})
	if d := ds[gid{1, 0, kNYC}]; d.Support != 1 || d.Top != "908" {
		t.Errorf("new CT group: %+v", d)
	}

	// Deleting the only member destroys every group.
	if _, err := m.Delete(key); err != nil {
		t.Fatal(err)
	}
	ds = drainMap(h)
	if d := ds[gid{0, 0, k908}]; d.Support != 0 || fmt.Sprint(d.X) != "[908]" {
		t.Errorf("destroyed group delta = %+v, want Support 0 and X [908]", d)
	}
	if _, ok := h.Stat(0, 0, k908); ok {
		t.Error("Stat on a destroyed group must miss")
	}
}

func TestGroupStatsBatchCoalesces(t *testing.T) {
	m := statsMonitor(t, "[AC] -> [CT]")
	h := m.TrackGroups()
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
// in a group's support yields a delta for every RHS attribute of the
// CFD, an update of an RHS attribute outside the LHS only for that
// attribute.
func TestSupportChangeDeltasEveryPair(t *testing.T) {
	m := statsMonitor(t, "[AC] -> [CT, NM]")
	h := m.TrackGroups()
	var seed ChangeSet
	seed.Insert(relation.Tuple{"908", "MH", "Mike"})
	seed.Insert(relation.Tuple{"908", "MH", "Rick"})
	seed.Insert(relation.Tuple{"212", "NYC", "Joe"})
	if _, err := m.Apply(&seed); err != nil {
		t.Fatal(err)
	}
	h.Drain(nil)
	k908, k212 := h.KeyOf([]relation.Value{"908"}), h.KeyOf([]relation.Value{"212"})

	// An insert into 908: CT keeps its one value, yet it gets a delta as
	// well as NM.
	key, _, err := m.Insert(relation.Tuple{"908", "MH", "Eve"})
	if err != nil {
		t.Fatal(err)
	}
	ds := drainMap(h)
	if len(ds) != 2 {
		t.Fatalf("insert drained %d deltas, want one per RHS attribute: %+v", len(ds), ds)
	}
	if d, ok := ds[gid{0, 0, k908}]; !ok || d.Support != 3 || d.PrevSupport != 2 || d.Distinct != 1 || d.PrevDistinct != 1 {
		t.Errorf("CT delta after insert = %+v (ok=%v), want support 2→3 with one value", d, ok)
	}
	if d, ok := ds[gid{0, 1, k908}]; !ok || d.Support != 3 || d.Distinct != 3 || d.PrevDistinct != 2 {
		t.Errorf("NM delta after insert = %+v (ok=%v), want support 3, distinct 2→3", d, ok)
	}

	// An NM update keeps the support: only NM moves.
	if _, err := m.Update(key, "NM", "Ann"); err != nil {
		t.Fatal(err)
	}
	ds = drainMap(h)
	if _, ok := ds[gid{0, 1, k908}]; len(ds) != 1 || !ok {
		t.Errorf("NM update drained %+v, want NM's 908 delta alone", ds)
	}

	// An AC update moves the tuple from 908 to 212: both groups change
	// support, so both RHS attributes drain both groups.
	if _, err := m.Update(key, "AC", "212"); err != nil {
		t.Fatal(err)
	}
	ds = drainMap(h)
	if len(ds) != 4 {
		t.Fatalf("AC update drained %d deltas, want 2 attributes × 2 groups: %+v", len(ds), ds)
	}
	for y, a := range []string{"CT", "NM"} {
		if d := ds[gid{0, y, k908}]; d.Support != 2 || d.PrevSupport != 3 {
			t.Errorf("%s delta of 908 = %+v, want support 3→2", a, d)
		}
		if d := ds[gid{0, y, k212}]; d.Support != 2 || d.PrevSupport != 1 {
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
	g := &dist{}
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
	g.add(b, 1)
	g.add(b, 1)
	check(1, "b", 2)
	g.add(a, 1)
	check(2, "b", 2) // counts beat values
	g.add(a, 1)
	check(2, "a", 2) // tie broken toward the smaller value
	g.remove(b)
	g.remove(b) // inline slot dies, spill survives
	check(1, "a", 2)
	g.add(b, 1) // dead slot's value re-enters via the spill map
	check(2, "a", 2)
	g.remove(a)
	g.remove(a)
	check(1, "b", 1)
	g.remove(b)
	check(0, "", 0)
}

// TestTrackGroupsValidation: Stat and Count of a CFD or an RHS position
// Σ does not have miss, as for an unknown group, and a monitor without
// Σ drains nothing.
func TestTrackGroupsValidation(t *testing.T) {
	m := statsMonitor(t, "[AC] -> [CT]")
	if _, _, err := m.Insert(relation.Tuple{"908", "MH", "Mike"}); err != nil {
		t.Fatal(err)
	}
	h := m.TrackGroups()
	key := h.KeyOf([]relation.Value{"908"})
	if _, ok := h.Stat(0, 0, key); !ok {
		t.Fatal("Stat(0, 0) must find the group")
	}
	for _, at := range [][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
		if st, ok := h.Stat(at[0], at[1], key); ok {
			t.Errorf("Stat(%d, %d) = %+v, want a miss", at[0], at[1], st)
		}
		if n := h.Count(at[0], at[1], key, "MH"); n != 0 {
			t.Errorf("Count(%d, %d) = %d, want 0", at[0], at[1], n)
		}
	}
	bare := statsMonitor(t, "")
	if _, _, err := bare.Insert(relation.Tuple{"908", "MH", "Mike"}); err != nil {
		t.Fatal(err)
	}
	if ds := bare.TrackGroups().Drain(nil); len(ds) != 0 {
		t.Errorf("a monitor without Σ drained %d deltas", len(ds))
	}
}

func TestUntrackGroupsStopsUpdates(t *testing.T) {
	m := statsMonitor(t, "[AC] -> [CT]")
	h, h2 := m.TrackGroups(), m.TrackGroups()
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

// TestMultiAttrPairKeys: a two-attribute LHS routes and keys correctly.
func TestMultiAttrPairKeys(t *testing.T) {
	m := statsMonitor(t, "[AC, CT] -> [NM]")
	h := m.TrackGroups()
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

// TestStatConcurrentReaders: Stat may rescan a distribution whose cached
// top a delete dropped, and the rescan must not rewrite the cache — so
// two concurrent Stat calls on that group must not race (run it under
// -race).
func TestStatConcurrentReaders(t *testing.T) {
	schema := statsSchema(t)
	rel := relation.New(schema)
	for _, ct := range []relation.Value{"a", "b", "b", "c", "c", "c"} {
		rel.MustInsert("908", ct, "n")
	}
	sigma, err := core.ParseSet("[AC] -> [CT]")
	if err != nil {
		t.Fatal(err)
	}
	m, err := Load(rel, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := m.TrackGroups()
	if _, err := m.Delete(5); err != nil { // one c: the cached top is dropped
		t.Fatal(err)
	}
	key := h.KeyOf([]relation.Value{"908"})
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, ok := h.Stat(0, 0, key)
			if !ok || st.Support != 5 || st.TopCount != 2 || st.Top != "b" {
				t.Errorf("Stat(908) = %+v ok=%v, want support 5, top b with 2 (tie with c)", st, ok)
			}
		}()
	}
	wg.Wait()
}

// TestStatGroupSpill drives one distribution through random adds
// and removes over a few or many distinct values — its spill table
// grows and drains, its cached mode is kept, dropped and rescanned;
// ties are settled by the top after every step, or by one that sees
// several adds at once — and checks distinct, count and top against a
// brute-force tally.
func TestStatGroupSpill(t *testing.T) {
	for _, tc := range []struct {
		values int
		every  bool
	}{{40, true}, {40, false}, {6, true}, {6, false}} {
		in := relation.NewInterner()
		ids := make([]uint32, tc.values)
		for i := range ids {
			// Reverse interning order, so ID order disagrees with value order.
			ids[i] = in.ID(relation.Value(fmt.Sprintf("v%02d", len(ids)-1-i)))
		}
		rng := rand.New(rand.NewSource(3))
		g := &dist{}
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
				g.add(v, 1)
				want[v]++
			}
			if !tc.every && rng.Intn(8) > 0 {
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
