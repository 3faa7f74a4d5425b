package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/relation"
)

func TestNewCFDValidation(t *testing.T) {
	if _, err := NewCFD([]string{"A"}, nil); err == nil {
		t.Error("empty RHS must be rejected")
	}
	if _, err := NewCFD([]string{"A", "A"}, []string{"B"}); err == nil {
		t.Error("duplicate LHS attributes must be rejected")
	}
	if _, err := NewCFD([]string{"A"}, []string{"B", "B"}); err == nil {
		t.Error("duplicate RHS attributes must be rejected")
	}
	if _, err := NewCFD([]string{""}, []string{"B"}); err == nil {
		t.Error("empty attribute names must be rejected")
	}
	if _, err := NewCFD([]string{"A"}, []string{"B"},
		PatternRow{X: []Pattern{W(), W()}, Y: []Pattern{W()}}); err == nil {
		t.Error("row arity mismatch must be rejected")
	}
	// A on both sides is legal (the t[AL]/t[AR] case).
	if _, err := NewCFD([]string{"A"}, []string{"A"},
		PatternRow{X: []Pattern{W()}, Y: []Pattern{C("x")}}); err != nil {
		t.Errorf("attribute on both sides should be legal: %v", err)
	}
}

func TestCFDCloneIsDeep(t *testing.T) {
	orig := phi2()
	c := orig.Clone()
	c.Tableau[1].X[0] = C("99")
	c.LHS[0] = "XX"
	if orig.Tableau[1].X[0] != C("01") || orig.LHS[0] != "CC" {
		t.Error("Clone must not share storage")
	}
}

func TestCFDAttrs(t *testing.T) {
	c := MustCFD([]string{"A", "B"}, []string{"B", "C"},
		PatternRow{X: []Pattern{W(), W()}, Y: []Pattern{W(), W()}})
	if got := c.Attrs(); !reflect.DeepEqual(got, []string{"A", "B", "C"}) {
		t.Errorf("Attrs = %v", got)
	}
}

func TestValidateDomainConstants(t *testing.T) {
	schema := relation.MustSchema("R",
		relation.Attribute{Name: "A", Domain: relation.Bool()},
		relation.Attr("B"))
	good := MustCFD([]string{"A"}, []string{"B"},
		PatternRow{X: []Pattern{C("true")}, Y: []Pattern{C("anything")}})
	if err := good.Validate(schema); err != nil {
		t.Errorf("in-domain constant rejected: %v", err)
	}
	bad := MustCFD([]string{"A"}, []string{"B"},
		PatternRow{X: []Pattern{C("maybe")}, Y: []Pattern{W()}})
	if err := bad.Validate(schema); err == nil {
		t.Error("out-of-domain constant must be rejected")
	}
}

func TestNormalize(t *testing.T) {
	// ϕ2: 3 rows × 3 RHS attributes = 9 simples.
	simples, err := phi2().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(simples) != 9 {
		t.Fatalf("got %d simples, want 9", len(simples))
	}
	// Each preserves the LHS and one RHS attribute.
	for _, s := range simples {
		if strings.Join(s.X, ",") != "CC,AC,PN" {
			t.Errorf("simple LHS = %v", s.X)
		}
		if s.A != "STR" && s.A != "CT" && s.A != "ZIP" {
			t.Errorf("simple RHS = %s", s.A)
		}
	}
	// Semantics preserved: the instance violates ϕ2 iff it violates some
	// simple.
	rel := custInstance()
	direct, err := Satisfies(rel, phi2())
	if err != nil {
		t.Fatal(err)
	}
	viaSimples := true
	for _, s := range simples {
		ok, err := Satisfies(rel, s.CFD())
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			viaSimples = false
		}
	}
	if direct != viaSimples {
		t.Errorf("normalization changed semantics: direct=%v simples=%v", direct, viaSimples)
	}
}

func TestNormalizeRejectsDontCare(t *testing.T) {
	c := MustCFD([]string{"A"}, []string{"B"},
		PatternRow{X: []Pattern{AtSign()}, Y: []Pattern{W()}})
	if _, err := c.Normalize(); err == nil {
		t.Error("'@' in a user CFD must be rejected by Normalize")
	}
}

func TestMergeSameFD(t *testing.T) {
	a := MustCFD([]string{"A"}, []string{"B"},
		PatternRow{X: []Pattern{C("1")}, Y: []Pattern{W()}})
	b := MustCFD([]string{"A"}, []string{"B"},
		PatternRow{X: []Pattern{C("2")}, Y: []Pattern{W()}})
	c := MustCFD([]string{"B"}, []string{"A"},
		PatternRow{X: []Pattern{W()}, Y: []Pattern{W()}})
	merged := MergeSameFD([]*CFD{a, b, c})
	if len(merged) != 2 {
		t.Fatalf("merged %d CFDs, want 2", len(merged))
	}
	if len(merged[0].Tableau) != 2 {
		t.Errorf("first CFD has %d rows, want 2", len(merged[0].Tableau))
	}
	// Attribute ORDER matters for merging: [A,B]→C and [B,A]→C stay apart.
	d := MustCFD([]string{"A", "B"}, []string{"C"},
		PatternRow{X: []Pattern{W(), W()}, Y: []Pattern{W()}})
	e := MustCFD([]string{"B", "A"}, []string{"C"},
		PatternRow{X: []Pattern{W(), W()}, Y: []Pattern{W()}})
	if got := MergeSameFD([]*CFD{d, e}); len(got) != 2 {
		t.Errorf("order-different FDs merged: %d", len(got))
	}
}

func TestConstantsAndAttrsOf(t *testing.T) {
	simples, err := NormalizeSet([]*CFD{phi2(), phi3()})
	if err != nil {
		t.Fatal(err)
	}
	consts := Constants(simples)
	if !reflect.DeepEqual(consts["CC"], []relation.Value{"01", "44"}) {
		t.Errorf("CC constants = %v", consts["CC"])
	}
	if !reflect.DeepEqual(consts["CT"], []relation.Value{"GLA", "MH", "NYC", "PHI"}) {
		t.Errorf("CT constants = %v", consts["CT"])
	}
	if _, ok := consts["PN"]; ok {
		t.Error("PN has no constants")
	}
	attrs := AttrsOf(simples)
	if !reflect.DeepEqual(attrs, []string{"AC", "CC", "CT", "PN", "STR", "ZIP"}) {
		t.Errorf("AttrsOf = %v", attrs)
	}
}

func TestSimpleEqualAndString(t *testing.T) {
	s := &Simple{X: []string{"A"}, A: "B", TX: []Pattern{C("a")}, PA: W()}
	if !s.Equal(s.Clone()) {
		t.Error("clone must be Equal")
	}
	other := s.Clone()
	other.PA = C("b")
	if s.Equal(other) {
		t.Error("different PA must not be Equal")
	}
	if s.String() != "[A=a] -> [B]" {
		t.Errorf("String = %q", s.String())
	}
	// Round trip through CFD().
	back, err := s.CFD().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || !back[0].Equal(s) {
		t.Errorf("CFD() round trip = %v", back)
	}
}

// TestStringGolden pins the text notation CFD.String and Simple.String
// share, row by row: '_' cells print the bare name, '@' cells "=@",
// constants "=" and the value, quoted when it would not parse back bare
// (a space, a comma, '=', the empty string, a lone '_' or '@'; a quote
// inside is doubled); rows join with newlines, and a CFD without rows
// prints its attribute lists and a note. The parse round trip cannot see
// a change of format made consistently on both sides; this can.
func TestStringGolden(t *testing.T) {
	multi := &CFD{
		LHS: []string{"CC", "AC", "STR"},
		RHS: []string{"CT", "ZIP"},
		Tableau: []PatternRow{
			{X: []Pattern{C("01"), W(), C("15 Oak Ave.")}, Y: []Pattern{AtSign(), C("O'Brien")}},
			{X: []Pattern{W(), C("908"), W()}, Y: []Pattern{C("MH"), W()}},
			{X: []Pattern{C(""), C("_"), C("a,b")}, Y: []Pattern{C("@"), C("x=y")}},
		},
	}
	simple := &Simple{X: []string{"A", "B"}, A: "C", TX: []Pattern{C("it's"), W()}, PA: AtSign()}
	for _, tc := range []struct{ got, want string }{
		{multi.String(), "[CC=01, AC, STR='15 Oak Ave.'] -> [CT=@, ZIP='O''Brien']\n" +
			"[CC, AC=908, STR] -> [CT=MH, ZIP]\n" +
			"[CC='', AC='_', STR='a,b'] -> [CT='@', ZIP='x=y']"},
		{(&CFD{LHS: []string{"A", "B"}, RHS: []string{"C"}}).String(), "[A, B] -> [C]  # empty tableau"},
		{simple.String(), "[A='it''s', B] -> [C=@]"},
	} {
		if tc.got != tc.want {
			t.Errorf("String =\n%s\nwant\n%s", tc.got, tc.want)
		}
	}
}

func TestIsStandardAndInstanceFD(t *testing.T) {
	multi := phi2()
	if multi.IsStandardFD() || multi.IsInstanceFD() {
		t.Error("ϕ2 is neither a standard nor an instance FD")
	}
	empty := &CFD{LHS: []string{"A"}, RHS: []string{"B"}}
	if empty.IsStandardFD() || empty.IsInstanceFD() {
		t.Error("empty tableau is neither")
	}
}
