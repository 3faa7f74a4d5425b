package discovery

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
)

// The kernel's oracle: a brute-force miner in test code that recomputes
// every candidate X → A from scratch — one GROUP BY X per candidate, its
// groups' A-value counts in a map — and applies the emission rules as
// written: impure counts groups with two or more A-values, evidence sums
// the sizes of groups with two or more members, a candidate is pruned
// when a one-smaller subset with the same RHS determines A (pruned or
// pure, so determination is transitive), the FD form needs no impure
// group and evidence ≥ MinSupport, a group yields a pattern row when its
// support and its dominant value's share clear the thresholds (ties
// toward the lexicographically smallest value), and rows are sorted by
// support then encoded X-projection (relation.CompareKeys order: length
// first) before the MaxPatterns cap. Value pools are tiny so groups
// collide, tie and flip between pure and mixed, and their values differ
// in length so that the two orders disagree: "a10" sorts before "a9"
// lexicographically but after it length first.

func kernelSchema() *relation.Schema {
	return relation.MustSchema("R",
		relation.Attr("A"), relation.Attr("B"), relation.Attr("C"), relation.Attr("D"))
}

var kernelPools = [][]relation.Value{
	{"a9", "a10", "a3"},
	{"b", "ab"},
	{"c1", "c22", "c333", "c4"},
	{"d", "cd"},
}

// randInstance draws n tuples over kernelPools. Each attribute after the
// first may follow an earlier one (its value index taken from that
// attribute's), with a per-instance noise rate, so exact and nearly
// exact FDs — and LHSs pruned through them — occur.
func randInstance(rng *rand.Rand, n int) *relation.Relation {
	rel := relation.New(kernelSchema())
	follow := make([]int, len(kernelPools))
	for a := range follow {
		follow[a] = rng.Intn(a+1) - 1 // -1: drawn freely
	}
	noise := []float64{0, 0, 0.1, 0.3}[rng.Intn(4)]
	for i := 0; i < n; i++ {
		t := make(relation.Tuple, len(kernelPools))
		at := make([]int, len(kernelPools))
		for a, pool := range kernelPools {
			at[a] = rng.Intn(len(pool))
			if f := follow[a]; f >= 0 && rng.Float64() >= noise {
				at[a] = at[f] % len(pool)
			}
			t[a] = pool[at[a]]
		}
		rel.Tuples = append(rel.Tuples, t)
	}
	return rel
}

// minedFingerprint renders a mined set into a comparable shape.
type minedFingerprint struct {
	CFD     string
	IsFD    bool
	Support []int
}

func fingerprint(ds []Discovered) []minedFingerprint {
	out := make([]minedFingerprint, len(ds))
	for i, d := range ds {
		out[i] = minedFingerprint{CFD: d.CFD.String(), IsFD: d.IsFD, Support: d.Support}
	}
	return out
}

// subsetsUpTo enumerates nonempty subsets of attrs with size ≤ k, smaller
// sizes first (so minimality pruning sees subsets before supersets).
func subsetsUpTo(attrs []string, k int) [][]string {
	var out [][]string
	var build func(start int, cur []string)
	for size := 1; size <= k && size <= len(attrs); size++ {
		build = func(start int, cur []string) {
			if len(cur) == size {
				out = append(out, append([]string(nil), cur...))
				return
			}
			for i := start; i < len(attrs); i++ {
				build(i+1, append(cur, attrs[i]))
			}
		}
		build(0, nil)
	}
	return out
}

func contains(xs []string, a string) bool {
	for _, x := range xs {
		if x == a {
			return true
		}
	}
	return false
}

// bruteForce is Discover recomputed candidate by candidate.
func bruteForce(t *testing.T, rel *relation.Relation, cfg Config) []Discovered {
	t.Helper()
	cfg = cfg.withDefaults()
	attrs := rel.Schema.Names()
	det := make(map[string]bool) // by "X->A"
	name := func(x []string, a string) string { return fmt.Sprint(x, "->", a) }
	type group struct {
		x      []relation.Value
		size   int
		counts map[relation.Value]int
	}
	type row struct {
		x   []relation.Value
		top relation.Value
		sup int
	}
	var out []Discovered
	for _, a := range attrs {
		ai := rel.Schema.MustIndex(a)
		for _, x := range subsetsUpTo(attrs, cfg.MaxLHS) {
			if contains(x, a) {
				continue
			}
			pruned := false
			for drop := range x {
				if len(x) > 1 {
					sub := append(append([]string(nil), x[:drop]...), x[drop+1:]...)
					pruned = pruned || det[name(sub, a)]
				}
			}
			idx, err := rel.Schema.Indexes(x)
			if err != nil {
				t.Fatal(err)
			}
			groups := make(map[string]*group)
			for i := range rel.Tuples {
				xv := rel.Project(i, idx)
				g := groups[relation.EncodeKey(xv)]
				if g == nil {
					g = &group{x: xv, counts: make(map[relation.Value]int)}
					groups[relation.EncodeKey(xv)] = g
				}
				g.size++
				g.counts[rel.Tuples[i][ai]]++
			}
			impure, evidence := 0, 0
			var rows []row
			for _, g := range groups {
				if len(g.counts) > 1 {
					impure++
				}
				if g.size >= 2 {
					evidence += g.size
				}
				top, topN := relation.Value(""), 0
				for v, n := range g.counts {
					if n > topN || n == topN && v < top {
						top, topN = v, n
					}
				}
				if g.size >= cfg.MinSupport && float64(topN)/float64(g.size) >= cfg.MinConfidence {
					rows = append(rows, row{x: g.x, top: top, sup: g.size})
				}
			}
			det[name(x, a)] = pruned || impure == 0
			switch {
			case pruned:
			case impure == 0:
				if evidence >= cfg.MinSupport {
					r := core.PatternRow{Y: []core.Pattern{core.W()}}
					for range x {
						r.X = append(r.X, core.W())
					}
					out = append(out, Discovered{CFD: core.MustCFD(x, []string{a}, r), IsFD: true, Support: []int{evidence}})
				}
			case len(rows) > 0:
				sort.Slice(rows, func(i, j int) bool {
					if rows[i].sup != rows[j].sup {
						return rows[i].sup > rows[j].sup
					}
					return relation.EncodeKey(rows[i].x) < relation.EncodeKey(rows[j].x)
				})
				if cfg.MaxPatterns > 0 && len(rows) > cfg.MaxPatterns {
					rows = rows[:cfg.MaxPatterns]
				}
				var tab []core.PatternRow
				var support []int
				for _, r := range rows {
					pr := core.PatternRow{Y: []core.Pattern{core.C(r.top)}}
					for _, v := range r.x {
						pr.X = append(pr.X, core.C(v))
					}
					tab = append(tab, pr)
					support = append(support, r.sup)
				}
				out = append(out, Discovered{CFD: core.MustCFD(x, []string{a}, tab...), Support: support})
			}
		}
	}
	return out
}

// TestDiscoverMatchesBruteForce: on random instances of 0–60 tuples,
// Discover equals the brute-force miner under every combination of LHS
// width, support (1 keeps singleton groups), confidence (0.5 lets
// dominant-value ties yield a row, so their tie-break shows) and pattern
// cap.
func TestDiscoverMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var rels []*relation.Relation
	for i := 0; i < 24; i++ {
		rels = append(rels, randInstance(rng, rng.Intn(61)))
	}
	for maxLHS := 1; maxLHS <= 3; maxLHS++ {
		for _, sup := range []int{1, 2, 3} {
			for _, conf := range []float64{0.5, 0.7, 1} {
				for _, cap := range []int{0, 2} {
					cfg := Config{MaxLHS: maxLHS, MinSupport: sup, MinConfidence: conf, MaxPatterns: cap}
					for i, rel := range rels {
						got, err := Discover(rel, cfg)
						if rel.Len() == 0 {
							if err == nil {
								t.Fatalf("%+v: empty instance %d must be rejected", cfg, i)
							}
							continue
						}
						if err != nil {
							t.Fatal(err)
						}
						if g, w := fingerprint(got), fingerprint(bruteForce(t, rel, cfg)); !reflect.DeepEqual(g, w) {
							t.Fatalf("%+v, instance %d (%d tuples):\n got: %v\nwant: %v", cfg, i, rel.Len(), g, w)
						}
					}
				}
			}
		}
	}
}

// TestDominantTieTakesSmallestValue: a group whose A-values tie yields
// its row with the lexicographically smallest one — "ab", not "b", which
// sorts first length first — however the tuples are ordered.
func TestDominantTieTakesSmallestValue(t *testing.T) {
	for _, order := range [][]relation.Value{{"b", "ab"}, {"ab", "b"}} {
		rel := relation.New(relation.MustSchema("R", relation.Attr("X"), relation.Attr("A")))
		for _, v := range order {
			rel.MustInsert("x", v)
		}
		ds, err := Discover(rel, Config{MaxLHS: 1, MinSupport: 2, MinConfidence: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, d := range ds {
			got = append(got, d.CFD.String())
		}
		if want := "[X=x] -> [A=ab]"; !slices.Contains(got, want) {
			t.Errorf("tuples %v mined %q, want %q among them", order, got, want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{MinConfidence: 1.2}).Validate(); err == nil {
		t.Error("MinConfidence > 1 must be rejected")
	}
	if err := (Config{MinConfidence: math.NaN()}).Validate(); err == nil {
		t.Error("NaN MinConfidence must be rejected")
	}
	if err := (Config{MaxPatterns: -1}).Validate(); err == nil {
		t.Error("negative MaxPatterns must be rejected")
	}
	if err := (Config{MaxLHS: 2, MinSupport: 5, MinConfidence: 0.5}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	// Discover refuses on entry.
	rel := relation.New(relation.MustSchema("R", relation.Attr("A"), relation.Attr("B")))
	rel.MustInsert("x", "y")
	if _, err := Discover(rel, Config{MinConfidence: 2}); err == nil {
		t.Error("Discover must validate the config")
	}
}
