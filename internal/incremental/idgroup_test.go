package incremental_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/incremental"
	"repro/internal/relation"
)

// TestIDGroupingMatchesStringGrouping cross-checks the monitor's
// packed-ID group index against an independent string-keyed grouping
// computed here with relation.EncodeKey. The value pool is built from
// prefix-sharing fragments ("", "a", "ab", "b", ...) so that adjacent
// attributes produce concatenation collisions at the byte level — e.g.
// X = ("a","bc") vs ("ab","c") — which both encodings must keep apart
// for the violating-group sets to agree.
func TestIDGroupingMatchesStringGrouping(t *testing.T) {
	schema := relation.MustSchema("R",
		relation.Attr("X1"), relation.Attr("X2"), relation.Attr("Y"))
	// One wildcard FD over a two-attribute LHS: a group violates exactly
	// when its members disagree on Y, so the variable-violation set IS
	// the grouping, observable through Violations().
	sigma := []*core.CFD{core.MustCFD([]string{"X1", "X2"}, []string{"Y"},
		core.PatternRow{X: []core.Pattern{core.W(), core.W()}, Y: []core.Pattern{core.W()}})}
	pool := []relation.Value{"", "a", "b", "c", "ab", "bc", "abc", "a\x00", "\x00b", "aa"}

	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, err := incremental.New(schema, sigma, incremental.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Independent string-keyed mirror: EncodeKey(X) → set of Y values.
		groups := make(map[string]map[relation.Value]int)
		live := make(map[int64]relation.Tuple)
		for step := 0; step < 300; step++ {
			if len(live) > 0 && rng.Intn(4) == 0 {
				// Delete a random live tuple.
				var victim int64 = -1
				for k := range live {
					victim = k
					break
				}
				tp := live[victim]
				if _, err := m.Delete(victim); err != nil {
					t.Fatalf("seed %d step %d: delete: %v", seed, step, err)
				}
				xk := relation.EncodeKey(tp[:2])
				g := groups[xk]
				if g[tp[2]]--; g[tp[2]] == 0 {
					delete(g, tp[2])
				}
				if len(g) == 0 {
					delete(groups, xk)
				}
				delete(live, victim)
				continue
			}
			tp := relation.Tuple{
				pool[rng.Intn(len(pool))],
				pool[rng.Intn(len(pool))],
				pool[rng.Intn(len(pool))],
			}
			key, _, err := m.Insert(tp)
			if err != nil {
				t.Fatalf("seed %d step %d: insert: %v", seed, step, err)
			}
			xk := relation.EncodeKey(tp[:2])
			if groups[xk] == nil {
				groups[xk] = make(map[relation.Value]int)
			}
			groups[xk][tp[2]]++
			live[key] = tp
		}

		// Expected violating groups under string keys.
		var want []string
		for xk, ys := range groups {
			if len(ys) > 1 {
				want = append(want, xk)
			}
		}
		sort.Strings(want)
		// The monitor's view, re-encoded from the materialized X values.
		var got []string
		for _, x := range m.Violations().PerCFD[0].VariableKeys {
			got = append(got, relation.EncodeKey(x))
		}
		sort.Strings(got)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: ID grouping disagrees with string grouping\n got: %q\nwant: %q", seed, got, want)
		}
	}
}
