// Package core implements the paper's primary contribution: conditional
// functional dependencies (CFDs) — their syntax (pattern tableaux), semantics
// (the match operator ≍), and the reasoning machinery of Section 3:
// consistency, the inference system FD1–FD8, implication, and MinCover.
package core

import (
	"fmt"
	"strings"

	"repro/internal/relation"
)

// PatternKind classifies a pattern-tableau cell.
type PatternKind uint8

const (
	// Const is a constant 'a' from the attribute's domain.
	Const PatternKind = iota
	// Wildcard is the unnamed variable '_' of the paper, matching any value.
	Wildcard
	// DontCare is the '@' symbol of Section 4.2, introduced when tableaux of
	// different CFDs are made union-compatible. A DontCare cell is excluded
	// from matching and from grouping (the attribute is outside the embedded
	// FD of the pattern's originating CFD).
	DontCare
)

// Pattern is one cell of a pattern tuple: a constant, '_' or '@'.
type Pattern struct {
	Kind PatternKind
	Val  relation.Value // meaningful only when Kind == Const
}

// C returns a constant pattern cell.
func C(v relation.Value) Pattern { return Pattern{Kind: Const, Val: v} }

// W returns the unnamed-variable ('_') pattern cell.
func W() Pattern { return Pattern{Kind: Wildcard} }

// AtSign returns the don't-care ('@') pattern cell of Section 4.2.
func AtSign() Pattern { return Pattern{Kind: DontCare} }

// Matches reports whether a data value matches this pattern cell
// (the per-cell component of the ≍ relation): a constant matches only
// itself; '_' and '@' match everything.
func (p Pattern) Matches(v relation.Value) bool {
	return p.Kind != Const || p.Val == v
}

// Leq reports the order relation p ⪯ q used by inference rule FD3:
// p ⪯ q iff q is '_', or p and q are the same constant. ('@' cells never
// participate in FD3; they order like '_' for symmetry.)
func (p Pattern) Leq(q Pattern) bool {
	if q.Kind != Const {
		return true
	}
	return p.Kind == Const && p.Val == q.Val
}

// String renders the cell in the paper's notation.
func (p Pattern) String() string {
	switch p.Kind {
	case Wildcard:
		return "_"
	case DontCare:
		return "@"
	default:
		if !needsQuoting(p.Val) {
			return p.Val
		}
		var b strings.Builder
		b.Grow(constLen(p.Val))
		writeConst(&b, p.Val)
		return b.String()
	}
}

// writeConst writes a constant cell: the value itself, or quoted in
// single quotes with each quote doubled when it would not parse back
// bare. constLen is its length.
func writeConst(b *strings.Builder, v string) {
	if !needsQuoting(v) {
		b.WriteString(v)
		return
	}
	b.WriteByte('\'')
	for {
		i := strings.IndexByte(v, '\'')
		if i < 0 {
			break
		}
		b.WriteString(v[:i+1])
		b.WriteByte('\'')
		v = v[i+1:]
	}
	b.WriteString(v)
	b.WriteByte('\'')
}

func constLen(v string) int {
	if !needsQuoting(v) {
		return len(v)
	}
	return len(v) + 2 + strings.Count(v, "'")
}

func needsQuoting(v string) bool {
	if v == "" || v == "_" || v == "@" {
		return true
	}
	return strings.ContainsAny(v, " ,'[]()=|#\t\n")
}

// PatternRow is one pattern tuple tc of a tableau. Cells are stored
// positionally against the CFD's LHS and RHS attribute lists, so an
// attribute occurring on both sides (the paper's t[AL] / t[AR]) simply has
// one cell in X and one in Y.
type PatternRow struct {
	X []Pattern
	Y []Pattern
}

// Clone deep-copies the row.
func (r PatternRow) Clone() PatternRow {
	return PatternRow{X: append([]Pattern(nil), r.X...), Y: append([]Pattern(nil), r.Y...)}
}

// MatchCells reports whether the data values vals (positionally aligned with
// pats) match every pattern cell: vals ≍ pats.
func MatchCells(vals []relation.Value, pats []Pattern) bool {
	for i, p := range pats {
		if !p.Matches(vals[i]) {
			return false
		}
	}
	return true
}

// LeqCells reports the pointwise order relation vals-as-patterns ⪯ pats.
func LeqCells(a, b []Pattern) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Leq(b[i]) {
			return false
		}
	}
	return true
}

func cellsString(pats []Pattern) string {
	parts := make([]string, len(pats))
	for i, p := range pats {
		parts[i] = p.String()
	}
	return strings.Join(parts, ", ")
}

// String renders the row as "(x1, ..., xn || y1, ..., ym)".
func (r PatternRow) String() string {
	return fmt.Sprintf("(%s || %s)", cellsString(r.X), cellsString(r.Y))
}
