package sqlmini

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/relation"
)

// column is one visible column during compilation: qualifier (the FROM
// alias, or "" for output columns), name, and where its value lives — the
// FROM source and the column within that source's row. col is rowidCol for
// the rowid pseudo-column, which is not stored in the row.
type column struct {
	qual string
	name string
	src  int
	col  int
}

const rowidCol = -1

// scope resolves column references.
type scope struct {
	cols []column
}

func (s *scope) resolve(qual, name string) (column, error) {
	if qual != "" {
		for _, c := range s.cols {
			if c.qual == qual && c.name == name {
				return c, nil
			}
		}
		return column{}, fmt.Errorf("sqlmini: unknown column %s.%s", qual, name)
	}
	found := -1
	for i, c := range s.cols {
		if c.name == name {
			if found >= 0 {
				return column{}, fmt.Errorf("sqlmini: ambiguous column %s", name)
			}
			found = i
		}
	}
	if found < 0 {
		return column{}, fmt.Errorf("sqlmini: unknown column %s", name)
	}
	return s.cols[found], nil
}

// frame is what compiled expressions read: each FROM source's current row
// and rowid, in place, plus the aggregate slots of a grouped query.
type frame struct {
	rows   [][]relation.Value // per source: the current row
	rowids []relation.Value   // per source: the current row's rowid
	pos    []int32            // per source: the current row's position
	aggs   []relation.Value
}

func newFrame(nsrc int) *frame {
	return &frame{
		rows:   make([][]relation.Value, nsrc),
		rowids: make([]relation.Value, nsrc),
		pos:    make([]int32, nsrc),
	}
}

// valFn computes a scalar value from a frame; boolFn a predicate.
type valFn func(f *frame) relation.Value

type boolFn func(f *frame) bool

// colFn reads one column of the frame.
func colFn(c column) valFn {
	src, col := c.src, c.col
	if col == rowidCol {
		return func(f *frame) relation.Value { return f.rowids[src] }
	}
	return func(f *frame) relation.Value { return f.rows[src][col] }
}

// compiler turns expressions into closures over a frame. When aggs is
// non-nil, CountExpr nodes compile to reads of the frame's aggregate slots
// (aggregate context: HAVING and the select list of a grouped query).
type compiler struct {
	scope *scope
	aggs  map[*CountExpr]int
}

func (c *compiler) compileBool(e Expr) (boolFn, error) {
	switch v := e.(type) {
	case *BinOp:
		switch v.Op {
		case "AND":
			l, err := c.compileBool(v.L)
			if err != nil {
				return nil, err
			}
			r, err := c.compileBool(v.R)
			if err != nil {
				return nil, err
			}
			return func(f *frame) bool { return l(f) && r(f) }, nil
		case "OR":
			l, err := c.compileBool(v.L)
			if err != nil {
				return nil, err
			}
			r, err := c.compileBool(v.R)
			if err != nil {
				return nil, err
			}
			return func(f *frame) bool { return l(f) || r(f) }, nil
		}
		return c.compileCmp(v)
	case *NotOp:
		inner, err := c.compileBool(v.E)
		if err != nil {
			return nil, err
		}
		return func(f *frame) bool { return !inner(f) }, nil
	}
	return nil, fmt.Errorf("sqlmini: expected a boolean expression, got %s", exprString(e))
}

func (c *compiler) compileCmp(v *BinOp) (boolFn, error) {
	l, err := c.compileVal(v.L)
	if err != nil {
		return nil, err
	}
	r, err := c.compileVal(v.R)
	if err != nil {
		return nil, err
	}
	switch v.Op {
	case "=":
		return func(f *frame) bool { return l(f) == r(f) }, nil
	case "<>":
		return func(f *frame) bool { return l(f) != r(f) }, nil
	case "<":
		return func(f *frame) bool { return compareValues(l(f), r(f)) < 0 }, nil
	case "<=":
		return func(f *frame) bool { return compareValues(l(f), r(f)) <= 0 }, nil
	case ">":
		return func(f *frame) bool { return compareValues(l(f), r(f)) > 0 }, nil
	case ">=":
		return func(f *frame) bool { return compareValues(l(f), r(f)) >= 0 }, nil
	}
	return nil, fmt.Errorf("sqlmini: unsupported operator %q", v.Op)
}

func (c *compiler) compileVal(e Expr) (valFn, error) {
	switch v := e.(type) {
	case *Lit:
		val := v.Val
		return func(*frame) relation.Value { return val }, nil
	case *ColRef:
		col, err := c.scope.resolve(v.Qual, v.Name)
		if err != nil {
			return nil, err
		}
		return colFn(col), nil
	case *CaseExpr:
		type branch struct {
			cond boolFn
			then valFn
		}
		branches := make([]branch, len(v.Whens))
		for i, w := range v.Whens {
			cond, err := c.compileBool(w.Cond)
			if err != nil {
				return nil, err
			}
			then, err := c.compileVal(w.Then)
			if err != nil {
				return nil, err
			}
			branches[i] = branch{cond, then}
		}
		var elseFn valFn
		if v.Else != nil {
			fn, err := c.compileVal(v.Else)
			if err != nil {
				return nil, err
			}
			elseFn = fn
		}
		return func(f *frame) relation.Value {
			for _, b := range branches {
				if b.cond(f) {
					return b.then(f)
				}
			}
			if elseFn != nil {
				return elseFn(f)
			}
			return ""
		}, nil
	case *CountExpr:
		if c.aggs == nil {
			return nil, fmt.Errorf("sqlmini: aggregate %s not allowed here", exprString(v))
		}
		slot, ok := c.aggs[v]
		if !ok {
			return nil, fmt.Errorf("sqlmini: internal: unregistered aggregate %s", exprString(v))
		}
		return func(f *frame) relation.Value { return f.aggs[slot] }, nil
	}
	return nil, fmt.Errorf("sqlmini: expected a scalar expression, got %s", exprString(e))
}

// compareValues orders numerically when both values parse as numbers, and
// lexicographically otherwise (the engine stores everything as strings).
func compareValues(a, b relation.Value) int {
	fa, errA := strconv.ParseFloat(a, 64)
	fb, errB := strconv.ParseFloat(b, 64)
	if errA == nil && errB == nil {
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(a, b)
}

// collectAggregates walks an expression and appends every CountExpr node.
func collectAggregates(e Expr, out []*CountExpr) []*CountExpr {
	switch v := e.(type) {
	case *CountExpr:
		return append(out, v)
	case *BinOp:
		out = collectAggregates(v.L, out)
		return collectAggregates(v.R, out)
	case *NotOp:
		return collectAggregates(v.E, out)
	case *CaseExpr:
		for _, w := range v.Whens {
			out = collectAggregates(w.Cond, out)
			out = collectAggregates(w.Then, out)
		}
		if v.Else != nil {
			out = collectAggregates(v.Else, out)
		}
	}
	return out
}

// colRefsOf appends every column reference in the expression.
func colRefsOf(e Expr, out []*ColRef) []*ColRef {
	switch v := e.(type) {
	case *ColRef:
		return append(out, v)
	case *BinOp:
		out = colRefsOf(v.L, out)
		return colRefsOf(v.R, out)
	case *NotOp:
		return colRefsOf(v.E, out)
	case *CaseExpr:
		for _, w := range v.Whens {
			out = colRefsOf(w.Cond, out)
			out = colRefsOf(w.Then, out)
		}
		if v.Else != nil {
			out = colRefsOf(v.Else, out)
		}
	case *CountExpr:
		for _, a := range v.Args {
			out = colRefsOf(a, out)
		}
	}
	return out
}

// splitOr flattens top-level OR into disjuncts (no distribution).
func splitOr(e Expr, out []Expr) []Expr {
	if b, ok := e.(*BinOp); ok && b.Op == "OR" {
		out = splitOr(b.L, out)
		return splitOr(b.R, out)
	}
	return append(out, e)
}

// orOf joins disjuncts back into one expression (the inverse of splitOr).
func orOf(ds []Expr) Expr {
	e := ds[0]
	for _, d := range ds[1:] {
		e = &BinOp{Op: "OR", L: e, R: d}
	}
	return e
}

// splitAnd flattens top-level AND into conjuncts.
func splitAnd(e Expr, out []Expr) []Expr {
	if b, ok := e.(*BinOp); ok && b.Op == "AND" {
		out = splitAnd(b.L, out)
		return splitAnd(b.R, out)
	}
	return append(out, e)
}
