package repair

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
)

type referenceCase struct {
	rel   *relation.Relation
	sigma []*core.CFD
}

// stuckCase is a consistent Σ the heuristic cannot repair: (∅ → B, (_))
// wants every B equal, (A → B, (a1 ‖ c)) forces the a1 tuple's B to c. The
// cell oscillates until it is stuck, and then the only match left to
// break is the empty-LHS one, which breakMatch cannot touch — a pass that
// finds violations and applies nothing.
func stuckCase() referenceCase {
	rel := relation.New(relation.MustSchema("R", relation.Attr("A"), relation.Attr("B")))
	rel.MustInsert("a1", "b")
	rel.MustInsert("a2", "b")
	rel.MustInsert("a3", "b")
	return referenceCase{rel: rel, sigma: []*core.CFD{
		core.MustCFD(nil, []string{"B"}, core.PatternRow{Y: []core.Pattern{core.W()}}),
		core.MustCFD([]string{"A"}, []string{"B"},
			core.PatternRow{X: []core.Pattern{core.C("a1")}, Y: []core.Pattern{core.C("c")}}),
	}}
}

// randomReferenceCases draws small dirty instances over R(A, B, C, D) and
// consistent Σ of two or three CFDs, empty LHS included.
func randomReferenceCases(n int) []referenceCase {
	rng := rand.New(rand.NewSource(6))
	schema := relation.MustSchema("R",
		relation.Attr("A"), relation.Attr("B"), relation.Attr("C"), relation.Attr("D"))
	attrs := []string{"A", "B", "C", "D"}
	vals := []relation.Value{"0", "1", "2"}
	pattern := func() core.Pattern {
		if rng.Intn(2) == 0 {
			return core.W()
		}
		return core.C(vals[rng.Intn(len(vals))])
	}
	randomCFD := func() *core.CFD {
		perm := rng.Perm(len(attrs))
		nx, ny := rng.Intn(3), 1+rng.Intn(2)
		lhs := make([]string, nx)
		rhs := make([]string, ny)
		for i := range lhs {
			lhs[i] = attrs[perm[i]]
		}
		for i := range rhs {
			rhs[i] = attrs[perm[nx+i]]
		}
		rows := make([]core.PatternRow, 1+rng.Intn(3))
		for r := range rows {
			rows[r] = core.PatternRow{X: make([]core.Pattern, nx), Y: make([]core.Pattern, ny)}
			for i := range rows[r].X {
				rows[r].X[i] = pattern()
			}
			for i := range rows[r].Y {
				rows[r].Y[i] = pattern()
			}
		}
		return core.MustCFD(lhs, rhs, rows...)
	}
	var out []referenceCase
	for len(out) < n {
		sigma := make([]*core.CFD, 2+rng.Intn(2))
		for i := range sigma {
			sigma[i] = randomCFD()
		}
		rel := relation.New(schema)
		for i := 0; i < 3+rng.Intn(12); i++ {
			rel.MustInsert(vals[rng.Intn(3)], vals[rng.Intn(3)], vals[rng.Intn(3)], vals[rng.Intn(3)])
		}
		if ok, _, err := core.Consistent(schema, sigma); err != nil || !ok {
			continue
		}
		out = append(out, referenceCase{rel: rel, sigma: sigma})
	}
	return out
}

// TestRepairSatisfiedMatchesReference: Result.Satisfied, certified from
// the last pass's indexed detection (or one more sweep once MaxPasses ran
// out), equals the naive reference core.SatisfiesSet on the repaired
// instance, under the default budget and under MaxPasses 1; Passes keeps
// the values it had when every run ended with the reference check.
func TestRepairSatisfiedMatchesReference(t *testing.T) {
	cases := append([]referenceCase{stuckCase()}, randomReferenceCases(60)...)
	// Passes per case under Options{} and Options{MaxPasses: 1}.
	wantPasses := [][2]int{
		{3, 1}, {1, 1}, {1, 1}, {1, 1}, {2, 1}, {1, 1}, {2, 1}, {2, 1}, {2, 1}, {1, 1},
		{1, 1}, {3, 1}, {1, 1}, {2, 1}, {1, 1}, {1, 1}, {2, 1}, {4, 1}, {2, 1}, {1, 1},
		{20, 1}, {1, 1}, {1, 1}, {2, 1}, {1, 1}, {2, 1}, {4, 1}, {2, 1}, {0, 0}, {4, 1},
		{1, 1}, {1, 1}, {20, 1}, {20, 1}, {1, 1}, {2, 1}, {2, 1}, {1, 1}, {2, 1}, {4, 1},
		{20, 1}, {20, 1}, {2, 1}, {1, 1}, {2, 1}, {1, 1}, {20, 1}, {1, 1}, {6, 1}, {4, 1},
		{0, 0}, {2, 1}, {1, 1}, {1, 1}, {2, 1}, {3, 1}, {1, 1}, {20, 1}, {2, 1}, {5, 1},
		{1, 1},
	}
	// How each run ended: [budget exhausted][satisfied]. Every cell must
	// occur, or the test no longer covers all three certificates.
	var endings [2][2]int
	for i, c := range cases {
		for k, opts := range []Options{{}, {MaxPasses: 1}} {
			res, err := Repair(c.rel, c.sigma, opts)
			if err != nil {
				t.Fatalf("case %d %+v: %v", i, opts, err)
			}
			want, err := core.SatisfiesSet(res.Repaired, c.sigma)
			if err != nil {
				t.Fatal(err)
			}
			if res.Satisfied != want {
				t.Errorf("case %d %+v: Satisfied = %v, core.SatisfiesSet = %v", i, opts, res.Satisfied, want)
			}
			if res.Passes != wantPasses[i][k] {
				t.Errorf("case %d %+v: Passes = %d, want %d", i, opts, res.Passes, wantPasses[i][k])
			}
			exhausted := res.Passes == opts.withDefaults().MaxPasses
			endings[b2i(exhausted)][b2i(want)]++
		}
	}
	if endings[0][0] == 0 || endings[0][1] == 0 || endings[1][0] == 0 || endings[1][1] == 0 {
		t.Errorf("endings [exhausted][satisfied] = %v: a certificate path went untested", endings)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
