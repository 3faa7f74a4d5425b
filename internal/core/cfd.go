package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/relation"
)

// CFD is a conditional functional dependency ϕ = (R: X → Y, Tp): a standard
// embedded FD X → Y together with a pattern tableau Tp (Section 2 of the
// paper). Attribute names refer to a relation schema supplied at use sites;
// a CFD value itself is schema-independent so the same constraint can be
// checked against any instance carrying the named attributes.
type CFD struct {
	// LHS and RHS are the attribute lists X and Y of the embedded FD.
	LHS []string
	RHS []string
	// Tableau is the pattern tableau Tp; every row has len(LHS) X-cells and
	// len(RHS) Y-cells.
	Tableau []PatternRow
}

// NewCFD builds a CFD and validates its internal shape (non-empty RHS,
// row arities, no duplicate attributes within a side).
func NewCFD(lhs, rhs []string, rows ...PatternRow) (*CFD, error) {
	c := &CFD{LHS: append([]string(nil), lhs...), RHS: append([]string(nil), rhs...)}
	for _, r := range rows {
		c.Tableau = append(c.Tableau, r.Clone())
	}
	if err := c.check(); err != nil {
		return nil, err
	}
	return c, nil
}

// MustCFD is NewCFD but panics on error; for fixed literal constraints.
func MustCFD(lhs, rhs []string, rows ...PatternRow) *CFD {
	c, err := NewCFD(lhs, rhs, rows...)
	if err != nil {
		panic(err)
	}
	return c
}

func (c *CFD) check() error {
	if len(c.RHS) == 0 {
		return fmt.Errorf("core: CFD must have a non-empty RHS")
	}
	seen := make(map[string]bool)
	for _, a := range c.LHS {
		if a == "" {
			return fmt.Errorf("core: CFD has an empty LHS attribute name")
		}
		if seen[a] {
			return fmt.Errorf("core: duplicate LHS attribute %q", a)
		}
		seen[a] = true
	}
	seen = make(map[string]bool)
	for _, a := range c.RHS {
		if a == "" {
			return fmt.Errorf("core: CFD has an empty RHS attribute name")
		}
		if seen[a] {
			return fmt.Errorf("core: duplicate RHS attribute %q", a)
		}
		seen[a] = true
	}
	for i, r := range c.Tableau {
		if len(r.X) != len(c.LHS) || len(r.Y) != len(c.RHS) {
			return fmt.Errorf("core: tableau row %d has arity (%d,%d), want (%d,%d)",
				i, len(r.X), len(r.Y), len(c.LHS), len(c.RHS))
		}
	}
	return nil
}

// Clone deep-copies the CFD.
func (c *CFD) Clone() *CFD {
	out := &CFD{LHS: append([]string(nil), c.LHS...), RHS: append([]string(nil), c.RHS...)}
	for _, r := range c.Tableau {
		out.Tableau = append(out.Tableau, r.Clone())
	}
	return out
}

// Attrs returns the set X ∪ Y in deterministic order (LHS order then new
// RHS attributes).
func (c *CFD) Attrs() []string {
	var out []string
	seen := make(map[string]bool)
	for _, a := range c.LHS {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	for _, a := range c.RHS {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// Validate checks the CFD against a schema: every attribute must exist and
// every constant must lie in its attribute's domain.
func (c *CFD) Validate(schema *relation.Schema) error {
	if err := c.check(); err != nil {
		return err
	}
	checkSide := func(names []string, cell func(PatternRow) []Pattern) error {
		for i, a := range names {
			if _, ok := schema.Index(a); !ok {
				return fmt.Errorf("core: CFD attribute %q not in schema %q", a, schema.Name)
			}
			dom := schema.Domain(a)
			for ri, r := range c.Tableau {
				p := cell(r)[i]
				if p.Kind == Const && !dom.Contains(p.Val) {
					return fmt.Errorf("core: tableau row %d: constant %q outside domain of %q", ri, p.Val, a)
				}
			}
		}
		return nil
	}
	if err := checkSide(c.LHS, func(r PatternRow) []Pattern { return r.X }); err != nil {
		return err
	}
	return checkSide(c.RHS, func(r PatternRow) []Pattern { return r.Y })
}

// IsStandardFD reports whether the CFD is a classical FD in CFD clothing:
// a single all-'_' pattern row (first special case of Section 2).
func (c *CFD) IsStandardFD() bool {
	if len(c.Tableau) != 1 {
		return false
	}
	for _, p := range c.Tableau[0].X {
		if p.Kind != Wildcard {
			return false
		}
	}
	for _, p := range c.Tableau[0].Y {
		if p.Kind != Wildcard {
			return false
		}
	}
	return true
}

// IsInstanceFD reports whether the CFD is an instance-level FD (second
// special case of Section 2): a single all-constant pattern row.
func (c *CFD) IsInstanceFD() bool {
	if len(c.Tableau) != 1 {
		return false
	}
	for _, p := range c.Tableau[0].X {
		if p.Kind != Const {
			return false
		}
	}
	for _, p := range c.Tableau[0].Y {
		if p.Kind != Const {
			return false
		}
	}
	return true
}

// String renders the CFD in the library's text notation, one line per
// pattern row, e.g. "[CC=01, AC=908, PN] -> [STR, CT=MH, ZIP]", into one
// builder sized up front. A CFD without rows renders its attribute lists
// and "  # empty tableau".
func (c *CFD) String() string {
	var b strings.Builder
	if len(c.Tableau) == 0 {
		const note = "  # empty tableau"
		b.Grow(rowLen(c.LHS, c.RHS, PatternRow{}) + len(note))
		writeRow(&b, c.LHS, c.RHS, PatternRow{})
		b.WriteString(note)
		return b.String()
	}
	n := len(c.Tableau) - 1 // the newlines
	for _, r := range c.Tableau {
		n += rowLen(c.LHS, c.RHS, r)
	}
	b.Grow(n)
	for i, r := range c.Tableau {
		if i > 0 {
			b.WriteByte('\n')
		}
		writeRow(&b, c.LHS, c.RHS, r)
	}
	return b.String()
}

// writeRow writes one pattern row, "[X side] -> [Y side]": each side
// its attribute names joined by ", ", a name followed by its cell — none
// for '_' (and for a row without cells), "=@" for '@', "=" and the
// constant otherwise. rowLen is its length.
func writeRow(b *strings.Builder, lhs, rhs []string, r PatternRow) {
	b.WriteByte('[')
	writeSide(b, lhs, r.X)
	b.WriteString("] -> [")
	writeSide(b, rhs, r.Y)
	b.WriteByte(']')
}

func writeSide(b *strings.Builder, names []string, pats []Pattern) {
	for i, a := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a)
		if i >= len(pats) {
			continue
		}
		switch p := pats[i]; p.Kind {
		case Wildcard:
		case DontCare:
			b.WriteString("=@")
		default:
			b.WriteByte('=')
			writeConst(b, p.Val)
		}
	}
}

func rowLen(lhs, rhs []string, r PatternRow) int {
	return len("[] -> []") + sideLen(lhs, r.X) + sideLen(rhs, r.Y)
}

func sideLen(names []string, pats []Pattern) int {
	n := 0
	for i, a := range names {
		if i > 0 {
			n += len(", ")
		}
		n += len(a)
		if i >= len(pats) {
			continue
		}
		switch p := pats[i]; p.Kind {
		case Wildcard:
		case DontCare:
			n += len("=@")
		default:
			n += 1 + constLen(p.Val)
		}
	}
	return n
}

// Simple is a CFD in the normal form of Section 3.2: a single RHS attribute
// A and a single pattern tuple tp, written (R: X → A, tp). The inference
// system, the consistency/implication analyses and MinCover all operate on
// Simple values; a general CFD is equivalent to the set of its simples.
type Simple struct {
	X  []string
	A  string
	TX []Pattern // pattern over X, aligned with X
	PA Pattern   // pattern over A
}

// Clone deep-copies the simple CFD.
func (s *Simple) Clone() *Simple {
	return &Simple{
		X:  append([]string(nil), s.X...),
		A:  s.A,
		TX: append([]Pattern(nil), s.TX...),
		PA: s.PA,
	}
}

// String renders the simple CFD in text notation.
func (s *Simple) String() string {
	rhs, pa := [1]string{s.A}, [1]Pattern{s.PA}
	r := PatternRow{X: s.TX, Y: pa[:]}
	var b strings.Builder
	b.Grow(rowLen(s.X, rhs[:], r))
	writeRow(&b, s.X, rhs[:], r)
	return b.String()
}

// Equal reports structural equality (same attribute lists, same patterns).
func (s *Simple) Equal(t *Simple) bool {
	if s.A != t.A || len(s.X) != len(t.X) {
		return false
	}
	for i := range s.X {
		if s.X[i] != t.X[i] || s.TX[i] != t.TX[i] {
			return false
		}
	}
	return s.PA == t.PA
}

// CFD converts the simple back to a general, single-row CFD.
func (s *Simple) CFD() *CFD {
	return MustCFD(s.X, []string{s.A}, PatternRow{X: append([]Pattern(nil), s.TX...), Y: []Pattern{s.PA}})
}

// Normalize decomposes ϕ = (X → Y, Tp) into the equivalent set Σϕ of
// normal-form CFDs: one Simple per (RHS attribute, pattern row) pair, as in
// Section 3.2. '@' cells cannot occur in user CFDs and cause an error.
func (c *CFD) Normalize() ([]*Simple, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	var out []*Simple
	for ri, r := range c.Tableau {
		for _, p := range r.X {
			if p.Kind == DontCare {
				return nil, fmt.Errorf("core: tableau row %d contains '@'; don't-care cells only arise in merged tableaux", ri)
			}
		}
		for yi, a := range c.RHS {
			if r.Y[yi].Kind == DontCare {
				return nil, fmt.Errorf("core: tableau row %d contains '@'; don't-care cells only arise in merged tableaux", ri)
			}
			out = append(out, &Simple{
				X:  append([]string(nil), c.LHS...),
				A:  a,
				TX: append([]Pattern(nil), r.X...),
				PA: r.Y[yi],
			})
		}
	}
	return out, nil
}

// NormalizeSet normalizes every CFD of Σ into one flat list of simples.
func NormalizeSet(sigma []*CFD) ([]*Simple, error) {
	var out []*Simple
	for i, c := range sigma {
		ss, err := c.Normalize()
		if err != nil {
			return nil, fmt.Errorf("core: CFD %d: %w", i, err)
		}
		out = append(out, ss...)
	}
	return out, nil
}

// MergeSameFD groups CFDs that share the same embedded FD (same LHS and RHS
// lists, order-sensitive) into single CFDs with multi-row tableaux. The
// text-notation loader uses it so that consecutive single-row constraints
// over one FD form one tableau, as in the paper's Figure 2.
func MergeSameFD(sigma []*CFD) []*CFD {
	type key struct{ lhs, rhs string }
	order := make([]key, 0, len(sigma))
	groups := make(map[key]*CFD)
	for _, c := range sigma {
		k := key{strings.Join(c.LHS, "\x00"), strings.Join(c.RHS, "\x00")}
		if g, ok := groups[k]; ok {
			for _, r := range c.Tableau {
				g.Tableau = append(g.Tableau, r.Clone())
			}
			continue
		}
		groups[k] = c.Clone()
		order = append(order, k)
	}
	out := make([]*CFD, 0, len(order))
	for _, k := range order {
		out = append(out, groups[k])
	}
	return out
}

// Constants returns, per attribute, the sorted set of constants that Σ
// mentions on that attribute. The consistency and implication analyses use
// it to bound their witness search.
func Constants(simples []*Simple) map[string][]relation.Value {
	sets := make(map[string]map[relation.Value]bool)
	add := func(attr string, p Pattern) {
		if p.Kind != Const {
			return
		}
		if sets[attr] == nil {
			sets[attr] = make(map[relation.Value]bool)
		}
		sets[attr][p.Val] = true
	}
	for _, s := range simples {
		for i, a := range s.X {
			add(a, s.TX[i])
		}
		add(s.A, s.PA)
	}
	out := make(map[string][]relation.Value, len(sets))
	for a, set := range sets {
		vals := make([]relation.Value, 0, len(set))
		for v := range set {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		out[a] = vals
	}
	return out
}

// AttrsOf returns the sorted set of attributes mentioned by the simples.
func AttrsOf(simples []*Simple) []string {
	set := make(map[string]bool)
	for _, s := range simples {
		for _, a := range s.X {
			set[a] = true
		}
		set[s.A] = true
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}
