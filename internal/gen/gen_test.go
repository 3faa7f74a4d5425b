package gen

import (
	"testing"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/relation"
)

func TestStatesReferenceIntegrity(t *testing.T) {
	states := States()
	if len(states) != NumStates {
		t.Fatalf("states = %d, want %d", len(states), NumStates)
	}
	seenCodes := make(map[string]bool)
	seenAC := make(map[string]bool)
	seenCities := make(map[string]bool)
	for i, s := range states {
		if seenCodes[s.Code] {
			t.Errorf("duplicate state code %s", s.Code)
		}
		seenCodes[s.Code] = true
		if s.ZipLo != i*ZipsPerState || s.ZipHi != (i+1)*ZipsPerState {
			t.Errorf("%s zip range [%d,%d)", s.Code, s.ZipLo, s.ZipHi)
		}
		for _, ac := range s.AreaCodes {
			if seenAC[ac] {
				t.Errorf("area code %s owned by two states", ac)
			}
			seenAC[ac] = true
		}
		for _, c := range s.Cities {
			if seenCities[c] {
				t.Errorf("city %q owned by two states", c)
			}
			seenCities[c] = true
		}
	}
}

func TestZipHelpers(t *testing.T) {
	if Zip(0) != "10000" || Zip(NumZips-1) != "39999" {
		t.Errorf("zip formatting: %s, %s", Zip(0), Zip(NumZips-1))
	}
	if ZipState(0).Code != "AL" || ZipState(NumZips-1).Code != "WY" {
		t.Errorf("zip ownership: %s, %s", ZipState(0).Code, ZipState(NumZips-1).Code)
	}
	if StateByCode("NY") == nil || StateByCode("ZZ") != nil {
		t.Error("StateByCode misbehaves")
	}
	if BracketIndex("35000") != 1 || BracketIndex("1") != -1 {
		t.Error("BracketIndex misbehaves")
	}
}

// TestCleanDataSatisfiesSemantics: the generator's clean output satisfies
// every semantic CFD — the paper's premise that noise alone introduces
// violations.
func TestCleanDataSatisfiesSemantics(t *testing.T) {
	data := GenerateTax(TaxConfig{Size: 2000, Noise: 0, Seed: 1})
	if data.Clean.Len() != 2000 {
		t.Fatalf("size = %d", data.Clean.Len())
	}
	if len(data.Changes) != 0 {
		t.Fatalf("noise=0 produced %d changes", len(data.Changes))
	}
	res, err := detect.Detect(data.Dirty, SemanticCFDs(), detect.Options{Strategy: detect.Direct})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Errorf("clean data violates semantic CFDs: %v", res.ViolatingCFDs())
	}
	// And the full zip→state tableau CFD holds as well.
	res, err = detect.Detect(data.Dirty, []*core.CFD{AllZipStateCFD(NumZips)}, detect.Options{Strategy: detect.Direct})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Error("clean data violates the all-zips CFD")
	}
}

// TestNoiseCreatesViolations: with noise, detection finds dirty tuples and
// the injected changes are recorded.
func TestNoiseCreatesViolations(t *testing.T) {
	data := GenerateTax(TaxConfig{Size: 2000, Noise: 0.05, Seed: 2})
	if len(data.Changes) == 0 {
		t.Fatal("5% noise over 2000 tuples should record changes")
	}
	// Roughly 5%: between 1% and 10% is fine for a sanity bound.
	if n := len(data.Changes); n < 20 || n > 200 {
		t.Errorf("changes = %d, expected around 100", n)
	}
	for _, ch := range data.Changes {
		if ch.From == ch.To {
			t.Errorf("degenerate change %+v", ch)
		}
		col := data.Dirty.Schema.MustIndex(ch.Attr)
		if data.Dirty.Tuples[ch.Row][col] != ch.To {
			t.Errorf("change %+v not applied", ch)
		}
		if data.Clean.Tuples[ch.Row][col] != ch.From {
			t.Errorf("change %+v does not match clean data", ch)
		}
	}
	res, err := detect.Detect(data.Dirty, SemanticCFDs(), detect.Options{Strategy: detect.Direct})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean() {
		t.Error("noisy data should violate the semantic CFDs")
	}
}

func TestGenerateTaxDeterministic(t *testing.T) {
	a := GenerateTax(TaxConfig{Size: 100, Noise: 0.1, Seed: 7})
	b := GenerateTax(TaxConfig{Size: 100, Noise: 0.1, Seed: 7})
	for i := range a.Dirty.Tuples {
		if !a.Dirty.Tuples[i].Equal(b.Dirty.Tuples[i]) {
			t.Fatalf("row %d differs across runs with the same seed", i)
		}
	}
	c := GenerateTax(TaxConfig{Size: 100, Noise: 0.1, Seed: 8})
	same := true
	for i := range a.Dirty.Tuples {
		if !a.Dirty.Tuples[i].Equal(c.Dirty.Tuples[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should generate different data")
	}
}

func TestTemplateByAttrs(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want Template
	}{{2, ZipToState}, {3, ZipCityToState}, {4, PhoneToStreet}, {6, PhoneToAddress}} {
		tp, err := TemplateByAttrs(tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if tp != tc.want {
			t.Errorf("TemplateByAttrs(%d) = %v, want %v", tc.n, tp, tc.want)
		}
		lhs, rhs := tp.Attrs()
		if len(lhs)+len(rhs) != tc.n {
			t.Errorf("%v spans %d attributes, want %d", tp, len(lhs)+len(rhs), tc.n)
		}
	}
	if _, err := TemplateByAttrs(5); err == nil {
		t.Error("unsupported NUMATTRs must error")
	}
}

// TestWorkloadCFDHoldsOnCleanData: generated pattern tableaux are sampled
// from clean projections, so the clean instance satisfies them — for every
// template and for mixed constant/variable tableaux.
func TestWorkloadCFDHoldsOnCleanData(t *testing.T) {
	data := GenerateTax(TaxConfig{Size: 3000, Noise: 0, Seed: 3})
	for _, tpl := range []Template{ZipToState, ZipCityToState, StateSalaryToTax, StateMaritalToExemptions, StateChildToExemption, AreaCodeToState, PhoneToAddress, PhoneToStreet} {
		for _, constPct := range []float64{1.0, 0.5, 0.0} {
			cfd, err := GenerateWorkloadCFD(data.Clean, CFDConfig{
				Template: tpl, TabSize: 200, ConstPct: constPct, Seed: 4,
			})
			if err != nil {
				t.Fatalf("%v: %v", tpl, err)
			}
			if len(cfd.Tableau) == 0 {
				t.Fatalf("%v: empty tableau", tpl)
			}
			res, err := detect.Detect(data.Clean, []*core.CFD{cfd}, detect.Options{Strategy: detect.Direct})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Clean() {
				t.Errorf("%v constPct=%.1f: clean data violates the generated CFD", tpl, constPct)
			}
		}
	}
}

// TestWorkloadCFDConstPct: NUMCONSTs controls the fraction of all-constant
// pattern tuples.
func TestWorkloadCFDConstPct(t *testing.T) {
	data := GenerateTax(TaxConfig{Size: 5000, Noise: 0, Seed: 5})
	countConstRows := func(c *core.CFD) int {
		n := 0
		for _, row := range c.Tableau {
			all := true
			for _, p := range row.X {
				if p.Kind != core.Const {
					all = false
				}
			}
			for _, p := range row.Y {
				if p.Kind != core.Const {
					all = false
				}
			}
			if all {
				n++
			}
		}
		return n
	}
	full, err := GenerateWorkloadCFD(data.Clean, CFDConfig{Template: StateSalaryToTax, TabSize: 150, ConstPct: 1.0, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if got := countConstRows(full); got != len(full.Tableau) {
		t.Errorf("ConstPct=1.0: %d of %d rows constant", got, len(full.Tableau))
	}
	half, err := GenerateWorkloadCFD(data.Clean, CFDConfig{Template: StateSalaryToTax, TabSize: 150, ConstPct: 0.5, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if got := countConstRows(half); got < 40 || got > 110 {
		t.Errorf("ConstPct=0.5: %d of %d rows constant, want roughly half", got, len(half.Tableau))
	}
}

func TestAllZipStateCFD(t *testing.T) {
	c := AllZipStateCFD(0)
	if len(c.Tableau) != NumZips {
		t.Errorf("full tableau = %d rows, want %d", len(c.Tableau), NumZips)
	}
	c = AllZipStateCFD(1000)
	if len(c.Tableau) != 1000 {
		t.Errorf("capped tableau = %d rows, want 1000", len(c.Tableau))
	}
	// Spot-check semantic correctness of a pattern row.
	row := c.Tableau[999]
	if row.X[0].Val != Zip(999) || row.Y[0].Val != ZipState(999).Code {
		t.Errorf("row 999 = %v", row)
	}
}

func TestWorkloadCFDErrors(t *testing.T) {
	empty := relation.New(TaxSchema())
	if _, err := GenerateWorkloadCFD(empty, CFDConfig{Template: ZipToState, TabSize: 10, ConstPct: 1}); err == nil {
		t.Error("empty instance must be rejected")
	}
	data := GenerateTax(TaxConfig{Size: 10, Noise: 0, Seed: 1})
	if _, err := GenerateWorkloadCFD(data.Clean, CFDConfig{Template: ZipToState, TabSize: 0, ConstPct: 1}); err == nil {
		t.Error("zero TabSize must be rejected")
	}
}
