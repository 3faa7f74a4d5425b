// Package relation provides the in-memory relational substrate used by the
// CFD library: typed schemas, tuples, relations, value interning and CSV I/O.
//
// It plays the role of the database tables in the paper's experiments
// (the paper used DB2; see DESIGN.md for the substitution argument). All
// attribute values are strings; domains — including the finite domains that
// drive the NP-hardness results of the paper — are schema metadata.
package relation

import (
	"bytes"
	"cmp"
	"fmt"
	"strconv"
	"strings"
)

// Value is the type of a single attribute value. The paper's data model is
// categorical, so values are strings; numeric attributes are compared
// numerically where SQL semantics demand it (see internal/sqlmini).
type Value = string

// Tuple is a data tuple: one Value per schema attribute, positionally.
type Tuple []Value

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Equal reports whether two tuples have identical arity and values.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Domain describes the set of admissible values of an attribute. A nil
// Values slice means the domain is unbounded (e.g. free-form strings); a
// non-nil Values slice makes the domain finite, which is what complicates
// the consistency analysis of CFDs (Example 3.1 / Theorem 3.1 in the paper).
type Domain struct {
	// Name is a human-readable domain name such as "bool" or "state".
	Name string
	// Values enumerates the finite domain; nil means infinite.
	Values []Value
}

// Finite reports whether the domain is finite.
func (d *Domain) Finite() bool { return d != nil && d.Values != nil }

// Contains reports whether v belongs to the domain. Infinite domains
// contain every value.
func (d *Domain) Contains(v Value) bool {
	if !d.Finite() {
		return true
	}
	for _, dv := range d.Values {
		if dv == v {
			return true
		}
	}
	return false
}

// Bool is the two-valued domain used in the paper's Example 3.1.
func Bool() *Domain { return &Domain{Name: "bool", Values: []Value{"true", "false"}} }

// Enum builds a finite domain from the given values.
func Enum(name string, values ...Value) *Domain {
	return &Domain{Name: name, Values: append([]Value(nil), values...)}
}

// Attribute is a named, optionally domain-constrained column.
type Attribute struct {
	Name   string
	Domain *Domain // nil means unbounded string domain
}

// Attr is shorthand for an attribute with an unbounded domain.
func Attr(name string) Attribute { return Attribute{Name: name} }

// Schema is a relation schema R over a fixed list of attributes attr(R).
type Schema struct {
	Name  string
	Attrs []Attribute

	index map[string]int
}

// NewSchema builds a schema and validates that attribute names are unique
// and non-empty.
func NewSchema(name string, attrs ...Attribute) (*Schema, error) {
	s := &Schema{Name: name, Attrs: append([]Attribute(nil), attrs...), index: make(map[string]int, len(attrs))}
	for i, a := range s.Attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("relation: schema %q: attribute %d has empty name", name, i)
		}
		if _, dup := s.index[a.Name]; dup {
			return nil, fmt.Errorf("relation: schema %q: duplicate attribute %q", name, a.Name)
		}
		s.index[a.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema but panics on error; intended for fixed literal
// schemas in tests and generators.
func MustSchema(name string, attrs ...Attribute) *Schema {
	s, err := NewSchema(name, attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of attributes.
func (s *Schema) Len() int { return len(s.Attrs) }

// Index returns the position of the named attribute.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// MustIndex returns the position of the named attribute and panics if the
// attribute does not exist; use only where the name was already validated.
func (s *Schema) MustIndex(name string) int {
	i, ok := s.index[name]
	if !ok {
		panic(fmt.Sprintf("relation: schema %q has no attribute %q", s.Name, name))
	}
	return i
}

// Names returns the attribute names in schema order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		out[i] = a.Name
	}
	return out
}

// Domain returns the domain of the named attribute (nil if unbounded or
// unknown attribute).
func (s *Schema) Domain(name string) *Domain {
	if i, ok := s.index[name]; ok {
		return s.Attrs[i].Domain
	}
	return nil
}

// Indexes resolves a list of attribute names to positions.
func (s *Schema) Indexes(names []string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		j, ok := s.index[n]
		if !ok {
			return nil, fmt.Errorf("relation: schema %q has no attribute %q", s.Name, n)
		}
		out[i] = j
	}
	return out, nil
}

// Relation is an instance I of a schema R: an ordered multiset of tuples.
// Tuple order is insertion order; row ids are stable positions.
type Relation struct {
	Schema *Schema
	Tuples []Tuple
}

// New returns an empty instance of the schema.
func New(schema *Schema) *Relation {
	return &Relation{Schema: schema}
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// Insert appends a tuple after checking its arity and domains.
func (r *Relation) Insert(t Tuple) error {
	if len(t) != r.Schema.Len() {
		return fmt.Errorf("relation: %q expects %d values, got %d", r.Schema.Name, r.Schema.Len(), len(t))
	}
	for i, a := range r.Schema.Attrs {
		if !a.Domain.Contains(t[i]) {
			return fmt.Errorf("relation: %q.%s: value %q outside domain %s", r.Schema.Name, a.Name, t[i], a.Domain.Name)
		}
	}
	r.Tuples = append(r.Tuples, t)
	return nil
}

// MustInsert inserts values positionally and panics on error; for fixtures.
func (r *Relation) MustInsert(vals ...Value) {
	if err := r.Insert(Tuple(vals)); err != nil {
		panic(err)
	}
}

// Clone deep-copies the relation (schema is shared, tuples are copied).
func (r *Relation) Clone() *Relation {
	c := New(r.Schema)
	c.Tuples = make([]Tuple, len(r.Tuples))
	for i, t := range r.Tuples {
		c.Tuples[i] = t.Clone()
	}
	return c
}

// Project returns the values of the named attributes for the given tuple.
func (r *Relation) Project(row int, idx []int) Tuple {
	t := r.Tuples[row]
	out := make(Tuple, len(idx))
	for i, j := range idx {
		out[i] = t[j]
	}
	return out
}

// DistinctProjection returns the distinct projections of the relation on
// the given attributes, in first-seen order.
func (r *Relation) DistinctProjection(names []string) ([]Tuple, error) {
	idx, err := r.Schema.Indexes(names)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var out []Tuple
	for row := range r.Tuples {
		p := r.Project(row, idx)
		k := EncodeKey(p)
		if !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}
	return out, nil
}

// String renders a small relation as an aligned text table (for examples
// and error messages; not meant for large instances).
func (r *Relation) String() string {
	var b strings.Builder
	names := r.Schema.Names()
	widths := make([]int, len(names))
	for i, n := range names {
		widths[i] = len(n)
	}
	for _, t := range r.Tuples {
		for i, v := range t {
			if len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	writeRow := func(vals []string) {
		for i, v := range vals {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(v)
			for p := len(v); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(names)
	for _, t := range r.Tuples {
		writeRow(t)
	}
	return b.String()
}

// EncodeKey encodes a list of values into a single map key. Values are
// length-prefixed so that no two distinct value lists collide. This sits
// on the hash-join and grouping hot paths, so it avoids fmt.
func EncodeKey(vals []Value) string {
	return string(AppendKey(nil, vals))
}

// AppendKey appends the EncodeKey encoding of vals to dst and returns
// the extended slice. Callers on mutation hot paths reuse one scratch
// buffer across encodes and probe maps with string(buf) — which the
// compiler keeps off the heap — so a key encode costs zero allocations
// unless the key is being stored.
func AppendKey(dst []byte, vals []Value) []byte {
	for _, v := range vals {
		dst = strconv.AppendInt(dst, int64(len(v)), 10)
		dst = append(dst, ':')
		dst = append(dst, v...)
	}
	return dst
}

// CompareKeys orders two value lists exactly as their EncodeKey
// encodings compare bytewise, without encoding them — the canonical
// order of violation keys, at no allocation per compare. It returns -1,
// 0 or +1.
//
// The order is decided at the first differing value: no encoded value is
// a proper prefix of another (the length prefix ends at the first ':',
// so equal prefixes mean equal lengths), and a list that runs out first
// encodes to a prefix of the other.
func CompareKeys(a, b []Value) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		x, y := a[i], b[i]
		if x == y {
			continue
		}
		if len(x) == len(y) {
			return strings.Compare(x, y)
		}
		// Different lengths: the decimal length prefixes differ before
		// either one's ':' is passed, so they decide.
		var bx, by [24]byte
		px := append(strconv.AppendInt(bx[:0], int64(len(x)), 10), ':')
		py := append(strconv.AppendInt(by[:0], int64(len(y)), 10), ':')
		return bytes.Compare(px, py)
	}
	return cmp.Compare(len(a), len(b))
}
