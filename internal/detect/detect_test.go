package detect

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/sqlgen"
)

func custRelation() *relation.Relation {
	schema := relation.MustSchema("cust",
		relation.Attr("CC"), relation.Attr("AC"), relation.Attr("PN"),
		relation.Attr("NM"), relation.Attr("STR"), relation.Attr("CT"),
		relation.Attr("ZIP"))
	rel := relation.New(schema)
	rel.MustInsert("01", "908", "1111111", "Mike", "Tree Ave.", "NYC", "07974")
	rel.MustInsert("01", "908", "1111111", "Rick", "Tree Ave.", "NYC", "07974")
	rel.MustInsert("01", "212", "2222222", "Joe", "Elm Str.", "NYC", "01202")
	rel.MustInsert("01", "212", "2222222", "Jim", "Elm Str.", "NYC", "02404")
	rel.MustInsert("01", "215", "3333333", "Ben", "Oak Ave.", "PHI", "02394")
	rel.MustInsert("44", "131", "4444444", "Ian", "High St.", "EDI", "EH4 1DT")
	return rel
}

func figure2CFDs() []*core.CFD {
	phi1 := core.MustCFD([]string{"CC", "ZIP"}, []string{"STR"},
		core.PatternRow{X: []core.Pattern{core.C("44"), core.W()}, Y: []core.Pattern{core.W()}})
	phi2 := core.MustCFD([]string{"CC", "AC", "PN"}, []string{"STR", "CT", "ZIP"},
		core.PatternRow{X: []core.Pattern{core.W(), core.W(), core.W()}, Y: []core.Pattern{core.W(), core.W(), core.W()}},
		core.PatternRow{X: []core.Pattern{core.C("01"), core.C("908"), core.W()}, Y: []core.Pattern{core.W(), core.C("MH"), core.W()}},
		core.PatternRow{X: []core.Pattern{core.C("01"), core.C("212"), core.W()}, Y: []core.Pattern{core.W(), core.C("NYC"), core.W()}})
	phi3 := core.MustCFD([]string{"CC", "AC"}, []string{"CT"},
		core.PatternRow{X: []core.Pattern{core.W(), core.W()}, Y: []core.Pattern{core.W()}},
		core.PatternRow{X: []core.Pattern{core.C("01"), core.C("215")}, Y: []core.Pattern{core.C("PHI")}},
		core.PatternRow{X: []core.Pattern{core.C("44"), core.C("141")}, Y: []core.Pattern{core.C("GLA")}})
	return []*core.CFD{phi1, phi2, phi3}
}

func allStrategies() []Options {
	return []Options{
		{Strategy: Direct},
		{Strategy: SQLPerCFD, Form: sqlgen.CNF},
		{Strategy: SQLPerCFD, Form: sqlgen.DNF},
		{Strategy: SQLPerCFD, Form: sqlgen.DNF, ViaDriver: true},
		{Strategy: SQLMerged, Form: sqlgen.CNF},
		{Strategy: SQLMerged, Form: sqlgen.DNF},
		{Strategy: SQLMerged, Form: sqlgen.CNF, ViaDriver: true},
	}
}

// TestAllStrategiesOnFigure2 checks every strategy against the known ground
// truth of Example 4.1 and Example 2.2.
func TestAllStrategiesOnFigure2(t *testing.T) {
	rel := custRelation()
	sigma := figure2CFDs()
	for _, opts := range allStrategies() {
		name := fmt.Sprintf("%s/%s/driver=%v", opts.Strategy, opts.Form, opts.ViaDriver)
		res, err := Detect(rel, sigma, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// ϕ1 (index 0) and ϕ3 (index 2) hold.
		for _, i := range []int{0, 2} {
			v := res.PerCFD[i]
			if len(v.ConstTuples) != 0 || len(v.VariableKeys) != 0 {
				t.Errorf("%s: CFD %d should be satisfied, got %+v", name, i, v)
			}
		}
		// ϕ2: const violations t1, t2; variable group (01, 212, 2222222).
		v := res.PerCFD[1]
		if want := []int{0, 1}; !reflect.DeepEqual(v.ConstTuples, want) {
			t.Errorf("%s: const tuples = %v, want %v", name, v.ConstTuples, want)
		}
		if len(v.VariableKeys) != 1 || relation.EncodeKey(v.VariableKeys[0]) != relation.EncodeKey([]relation.Value{"01", "212", "2222222"}) {
			t.Errorf("%s: variable keys = %v", name, v.VariableKeys)
		}
		if res.Clean() {
			t.Errorf("%s: result should not be clean", name)
		}
		if want := []int{1}; !reflect.DeepEqual(res.ViolatingCFDs(), want) {
			t.Errorf("%s: violating CFDs = %v, want %v", name, res.ViolatingCFDs(), want)
		}
	}
}

// TestStrategiesAgreeOnRandomInstances (property): all strategies return
// identical canonical results on randomized instances and CFDs.
func TestStrategiesAgreeOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	schema := relation.MustSchema("R",
		relation.Attr("A"), relation.Attr("B"), relation.Attr("C"), relation.Attr("D"))
	attrs := []string{"A", "B", "C", "D"}
	vals := []relation.Value{"0", "1", "2"}

	randomCFD := func() *core.CFD {
		perm := rng.Perm(4)
		nx := 1 + rng.Intn(2)
		ny := 1 + rng.Intn(2)
		lhs := make([]string, nx)
		rhs := make([]string, ny)
		for i := range lhs {
			lhs[i] = attrs[perm[i]]
		}
		for i := range rhs {
			rhs[i] = attrs[perm[nx+i]]
		}
		nrows := 1 + rng.Intn(3)
		rows := make([]core.PatternRow, nrows)
		for r := range rows {
			rows[r] = core.PatternRow{X: make([]core.Pattern, nx), Y: make([]core.Pattern, ny)}
			for i := range rows[r].X {
				if rng.Intn(2) == 0 {
					rows[r].X[i] = core.W()
				} else {
					rows[r].X[i] = core.C(vals[rng.Intn(3)])
				}
			}
			for i := range rows[r].Y {
				if rng.Intn(2) == 0 {
					rows[r].Y[i] = core.W()
				} else {
					rows[r].Y[i] = core.C(vals[rng.Intn(3)])
				}
			}
		}
		return core.MustCFD(lhs, rhs, rows...)
	}

	for iter := 0; iter < 40; iter++ {
		rel := relation.New(schema)
		n := 3 + rng.Intn(10)
		for i := 0; i < n; i++ {
			rel.MustInsert(vals[rng.Intn(3)], vals[rng.Intn(3)], vals[rng.Intn(3)], vals[rng.Intn(3)])
		}
		sigma := []*core.CFD{randomCFD(), randomCFD()}

		var first *Result
		var firstName string
		for _, opts := range allStrategies() {
			name := fmt.Sprintf("%s/%s/driver=%v", opts.Strategy, opts.Form, opts.ViaDriver)
			res, err := Detect(rel, sigma, opts)
			if err != nil {
				t.Fatalf("iter %d %s: %v\nCFDs:\n%s\n%s", iter, name, err, sigma[0], sigma[1])
			}
			if first == nil {
				first, firstName = res, name
				continue
			}
			if !first.Equal(res) {
				t.Fatalf("iter %d: %s and %s disagree\n%s: %+v\n%s: %+v\nCFDs:\n%s\n%s\ndata:\n%s",
					iter, firstName, name, firstName, first.PerCFD, name, res.PerCFD, sigma[0], sigma[1], rel)
			}
		}
	}
}

// TestFindDetailedMatchesReference: the indexed detector agrees with the
// naive reference implementation in core, as violation sets.
func TestFindDetailedMatchesReference(t *testing.T) {
	rel := custRelation()
	for i, c := range figure2CFDs() {
		fast, err := FindDetailed(rel, c)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := core.FindViolations(rel, c)
		if err != nil {
			t.Fatal(err)
		}
		if !sameViolationSet(fast, slow) {
			t.Errorf("CFD %d: indexed %v != reference %v", i, fast, slow)
		}
	}
}

func sameViolationSet(a, b []core.Violation) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(v core.Violation) string {
		return fmt.Sprintf("%d|%d|%v|%v", v.Kind, v.Row, v.Tuples, v.Key)
	}
	count := make(map[string]int)
	for _, v := range a {
		count[key(v)]++
	}
	for _, v := range b {
		count[key(v)]--
	}
	for _, n := range count {
		if n != 0 {
			return false
		}
	}
	return true
}

func TestDetectValidatesCFDs(t *testing.T) {
	rel := custRelation()
	bad := core.MustCFD([]string{"NOPE"}, []string{"CT"},
		core.PatternRow{X: []core.Pattern{core.W()}, Y: []core.Pattern{core.W()}})
	for _, opts := range allStrategies() {
		if _, err := Detect(rel, []*core.CFD{bad}, opts); err == nil {
			t.Errorf("%v: unknown attribute must be rejected", opts.Strategy)
		}
	}
}

func TestDetectEmptyRelation(t *testing.T) {
	rel := relation.New(custRelation().Schema)
	for _, opts := range allStrategies() {
		res, err := Detect(rel, figure2CFDs(), opts)
		if err != nil {
			t.Fatalf("%v: %v", opts.Strategy, err)
		}
		if !res.Clean() {
			t.Errorf("%v: empty instance must be clean", opts.Strategy)
		}
	}
}

// TestEmptyLHSAcrossStrategies: constraints (∅ → A, (a)) — the MinCover
// output shape — must agree across all strategies.
func TestEmptyLHSAcrossStrategies(t *testing.T) {
	rel := custRelation()
	sigma := []*core.CFD{
		core.MustCFD(nil, []string{"CC"}, core.PatternRow{Y: []core.Pattern{core.C("01")}}),
		core.MustCFD(nil, []string{"CT"}, core.PatternRow{Y: []core.Pattern{core.W()}}),
	}
	var first *Result
	for _, opts := range allStrategies() {
		res, err := Detect(rel, sigma, opts)
		if err != nil {
			t.Fatalf("%v/%v: %v", opts.Strategy, opts.Form, err)
		}
		if first == nil {
			first = res
			// CFD 0: t6 (CC=44) is a const violation; the six tuples also
			// form a conflicting group on CC. CFD 1: all tuples share the
			// empty X and differ on CT: one conflicting group.
			if !reflect.DeepEqual(res.PerCFD[0].ConstTuples, []int{5}) {
				t.Errorf("const tuples = %v, want [5]", res.PerCFD[0].ConstTuples)
			}
			if len(res.PerCFD[0].VariableKeys) != 1 || len(res.PerCFD[1].VariableKeys) != 1 {
				t.Errorf("variable keys = %v / %v, want one empty-key group each",
					res.PerCFD[0].VariableKeys, res.PerCFD[1].VariableKeys)
			}
			continue
		}
		if !first.Equal(res) {
			t.Errorf("%v/%v disagrees on empty-LHS CFDs: %+v vs %+v",
				opts.Strategy, opts.Form, first.PerCFD, res.PerCFD)
		}
	}
}

func TestDetectEmptySigma(t *testing.T) {
	res, err := Detect(custRelation(), nil, Options{Strategy: Direct})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() || len(res.PerCFD) != 0 {
		t.Errorf("empty Σ: %+v", res)
	}
	// The merged strategy needs at least one CFD.
	if _, err := Detect(custRelation(), nil, Options{Strategy: SQLMerged}); err == nil {
		t.Error("merged detection of an empty Σ should error (nothing to merge)")
	}
}

// TestConcurrentViaDriverDetections: every ViaDriver detection registers
// its catalog under its own DSN, so concurrent detections over different
// instances never query, or unregister, each other's catalog.
func TestConcurrentViaDriverDetections(t *testing.T) {
	sigma := figure2CFDs()
	pick := func(rng *rand.Rand, vals ...relation.Value) relation.Value { return vals[rng.Intn(len(vals))] }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		rng := rand.New(rand.NewSource(int64(g)))
		rel := relation.New(custRelation().Schema)
		for i := 0; i < 20+rng.Intn(20); i++ {
			rel.MustInsert(pick(rng, "01", "44"), pick(rng, "908", "212", "215"), pick(rng, "1", "2"),
				fmt.Sprint(i), pick(rng, "Elm", "Oak"), pick(rng, "NYC", "MH", "PHI"), pick(rng, "z1", "z2"))
		}
		want, err := Detect(rel, sigma, Options{Strategy: Direct})
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Strategy: SQLPerCFD, Form: sqlgen.DNF, ViaDriver: true}
		if g%2 == 1 {
			opts = Options{Strategy: SQLMerged, Form: sqlgen.CNF, ViaDriver: true}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				got, err := Detect(rel, sigma, opts)
				if err != nil {
					t.Errorf("goroutine %d round %d: %v", g, round, err)
					return
				}
				if !got.Equal(want) {
					t.Errorf("goroutine %d round %d: %+v, Direct %+v", g, round, got.PerCFD, want.PerCFD)
					return
				}
			}
		}()
	}
	wg.Wait()
}
