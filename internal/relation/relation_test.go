package relation

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema("R", Attr("A"), Attr("A")); err == nil {
		t.Error("duplicate attribute names must be rejected")
	}
	if _, err := NewSchema("R", Attr("")); err == nil {
		t.Error("empty attribute names must be rejected")
	}
	s, err := NewSchema("R", Attr("A"), Attr("B"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	if i, ok := s.Index("B"); !ok || i != 1 {
		t.Errorf("Index(B) = %d, %v", i, ok)
	}
	if _, ok := s.Index("Z"); ok {
		t.Error("Index(Z) should not exist")
	}
	if got := s.Names(); !reflect.DeepEqual(got, []string{"A", "B"}) {
		t.Errorf("Names = %v", got)
	}
}

func TestMustIndexPanics(t *testing.T) {
	s := MustSchema("R", Attr("A"))
	defer func() {
		if recover() == nil {
			t.Error("MustIndex on unknown attribute must panic")
		}
	}()
	s.MustIndex("Z")
}

func TestInsertChecksArity(t *testing.T) {
	r := New(MustSchema("R", Attr("A"), Attr("B")))
	if err := r.Insert(Tuple{"1"}); err == nil {
		t.Error("arity mismatch must be rejected")
	}
	if err := r.Insert(Tuple{"1", "2"}); err != nil {
		t.Errorf("valid insert failed: %v", err)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
}

func TestInsertChecksDomain(t *testing.T) {
	s := MustSchema("R", Attribute{Name: "A", Domain: Bool()}, Attr("B"))
	r := New(s)
	if err := r.Insert(Tuple{"true", "anything"}); err != nil {
		t.Errorf("in-domain insert failed: %v", err)
	}
	if err := r.Insert(Tuple{"maybe", "x"}); err == nil {
		t.Error("out-of-domain value must be rejected")
	}
}

func TestDomainContains(t *testing.T) {
	var unbounded *Domain
	if !unbounded.Contains("anything") {
		t.Error("nil domain contains everything")
	}
	if unbounded.Finite() {
		t.Error("nil domain is not finite")
	}
	b := Bool()
	if !b.Finite() || !b.Contains("true") || b.Contains("2") {
		t.Error("bool domain misbehaves")
	}
	e := Enum("abc", "a", "b", "c")
	if !e.Contains("b") || e.Contains("d") {
		t.Error("enum domain misbehaves")
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := New(MustSchema("R", Attr("A")))
	r.MustInsert("x")
	c := r.Clone()
	c.Tuples[0][0] = "y"
	if r.Tuples[0][0] != "x" {
		t.Error("Clone must not share tuple storage")
	}
}

func TestProjectAndDistinct(t *testing.T) {
	r := New(MustSchema("R", Attr("A"), Attr("B"), Attr("C")))
	r.MustInsert("1", "x", "p")
	r.MustInsert("1", "x", "q")
	r.MustInsert("2", "y", "p")
	idx, err := r.Schema.Indexes([]string{"B", "A"})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Project(0, idx); !got.Equal(Tuple{"x", "1"}) {
		t.Errorf("Project = %v", got)
	}
	d, err := r.DistinctProjection([]string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 2 {
		t.Errorf("distinct projections = %v, want 2 entries", d)
	}
}

func TestEncodeKeyInjective(t *testing.T) {
	// The classic collision: ("ab","c") vs ("a","bc") must differ.
	if EncodeKey([]Value{"ab", "c"}) == EncodeKey([]Value{"a", "bc"}) {
		t.Error("EncodeKey must be injective")
	}
	cfg := &quick.Config{MaxCount: 2000, Values: func(vs []reflect.Value, r *rand.Rand) {
		gen := func() []Value {
			n := r.Intn(4)
			out := make([]Value, n)
			for i := range out {
				b := make([]byte, r.Intn(4))
				for j := range b {
					b[j] = byte('a' + r.Intn(3))
				}
				out[i] = string(b)
			}
			return out
		}
		vs[0] = reflect.ValueOf(gen())
		vs[1] = reflect.ValueOf(gen())
	}}
	if err := quick.Check(func(a, b []Value) bool {
		eq := len(a) == len(b)
		if eq {
			for i := range a {
				if a[i] != b[i] {
					eq = false
					break
				}
			}
		}
		return eq == (EncodeKey(a) == EncodeKey(b))
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestCompareKeysMatchesEncodedOrder checks CompareKeys against its
// definition — the bytewise order of the EncodeKey encodings — on random
// value lists whose lengths straddle a decimal digit (9 against 10, 1
// against 12: the length prefixes "9:" and "10:" sort opposite to the
// lengths) and whose values share prefixes, including the empty value.
func TestCompareKeysMatchesEncodedOrder(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	value := func() Value {
		n := []int{0, 1, 2, 9, 10, 12}[r.Intn(6)]
		b := make([]byte, n)
		for j := range b {
			b[j] = byte('a' + r.Intn(2))
		}
		return Value(b)
	}
	list := func() []Value {
		out := make([]Value, r.Intn(4))
		for i := range out {
			out[i] = value()
		}
		return out
	}
	for i := 0; i < 20000; i++ {
		a, b := list(), list()
		if r.Intn(4) == 0 {
			// Share a prefix, so the first difference falls further in.
			b = append(append([]Value(nil), a[:r.Intn(len(a)+1)]...), b...)
		}
		if got, want := CompareKeys(a, b), strings.Compare(EncodeKey(a), EncodeKey(b)); got != want {
			t.Fatalf("CompareKeys(%q, %q) = %d, encoded order %d", a, b, got, want)
		}
	}
}

func TestRelationString(t *testing.T) {
	r := New(MustSchema("R", Attr("A"), Attr("Long")))
	r.MustInsert("1", "xx")
	s := r.String()
	if !strings.Contains(s, "A") || !strings.Contains(s, "Long") || !strings.Contains(s, "xx") {
		t.Errorf("String output missing content:\n%s", s)
	}
	if len(strings.Split(strings.TrimRight(s, "\n"), "\n")) != 2 {
		t.Errorf("String should have header + 1 row:\n%s", s)
	}
}

func TestTupleEqual(t *testing.T) {
	if !(Tuple{"a", "b"}).Equal(Tuple{"a", "b"}) {
		t.Error("equal tuples reported unequal")
	}
	if (Tuple{"a"}).Equal(Tuple{"a", "b"}) {
		t.Error("different arities reported equal")
	}
	if (Tuple{"a", "b"}).Equal(Tuple{"a", "c"}) {
		t.Error("different values reported equal")
	}
}

// TestColumns: interning a relation into columns keeps every cell, gives
// each distinct value of a column one ID, and an empty relation has no
// tuples.
func TestColumns(t *testing.T) {
	rel := New(MustSchema("R", Attr("A"), Attr("B")))
	rel.MustInsert("x", "y")
	rel.MustInsert("y", "x")
	rel.MustInsert("x", "z")
	c := rel.Columns()
	if c.Len() != 3 || len(c.Vals[0]) != 2 || len(c.Vals[1]) != 3 {
		t.Fatalf("Len %d, values %v; want 3 tuples over 2 + 3 column values", c.Len(), c.Vals)
	}
	for r, tu := range rel.Tuples {
		for a, v := range tu {
			if got := c.Vals[a][c.Cols[a][r]]; got != v {
				t.Errorf("cell (%d, %d) = %q, want %q", r, a, got, v)
			}
		}
	}
	if c.Cols[0][0] != c.Cols[0][2] || c.Cols[0][0] == c.Cols[0][1] {
		t.Errorf(`column A's IDs %v must follow its values x, y, x`, c.Cols[0])
	}
	if n := New(rel.Schema).Columns().Len(); n != 0 {
		t.Errorf("empty relation: Len %d", n)
	}
}
