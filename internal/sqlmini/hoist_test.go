package sqlmini

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/relation"
)

// bruteSource is one FROM item as the reference sees it: rows of (x, y),
// with the rowid being the row's position.
type bruteSource struct {
	alias string
	rows  [][]string
}

// bruteEnv evaluates an expression over one row of the cross product,
// independently of the engine's compiler.
type bruteEnv struct {
	srcs []bruteSource
	pos  []int
}

func (e *bruteEnv) val(x Expr) string {
	switch v := x.(type) {
	case *Lit:
		return v.Val
	case *ColRef:
		for s, src := range e.srcs {
			if src.alias != v.Qual {
				continue
			}
			switch v.Name {
			case "x":
				return src.rows[e.pos[s]][0]
			case "y":
				return src.rows[e.pos[s]][1]
			case RowidColumn:
				return strconv.Itoa(e.pos[s])
			}
		}
		panic("unknown column " + exprString(v))
	case *CaseExpr:
		for _, w := range v.Whens {
			if e.truth(w.Cond) {
				return e.val(w.Then)
			}
		}
		return e.val(v.Else)
	}
	panic("unsupported scalar " + exprString(x))
}

func (e *bruteEnv) truth(x Expr) bool {
	switch v := x.(type) {
	case *NotOp:
		return !e.truth(v.E)
	case *BinOp:
		switch v.Op {
		case "AND":
			return e.truth(v.L) && e.truth(v.R)
		case "OR":
			return e.truth(v.L) || e.truth(v.R)
		case "=":
			return e.val(v.L) == e.val(v.R)
		case "<>":
			return e.val(v.L) != e.val(v.R)
		}
	}
	panic("unsupported predicate " + exprString(x))
}

// crossProduct calls fn for every row of the sources' cross product that
// satisfies where.
func crossProduct(srcs []bruteSource, where Expr, fn func(e *bruteEnv)) {
	e := &bruteEnv{srcs: srcs, pos: make([]int, len(srcs))}
	var rec func(s int)
	rec = func(s int) {
		if s == len(srcs) {
			if e.truth(where) {
				fn(e)
			}
			return
		}
		for j := range srcs[s].rows {
			e.pos[s] = j
			rec(s + 1)
		}
	}
	rec(0)
}

// toDNF rewrites a predicate (negated when neg) into a disjunction of
// conjunctions of comparisons, pushing NOT down to the comparisons.
func toDNF(x Expr, neg bool) [][]Expr {
	switch v := x.(type) {
	case *NotOp:
		return toDNF(v.E, !neg)
	case *BinOp:
		isAnd := v.Op == "AND"
		if v.Op == "AND" || v.Op == "OR" {
			l, r := toDNF(v.L, neg), toDNF(v.R, neg)
			if isAnd != neg { // a conjunction: distribute
				var out [][]Expr
				for _, a := range l {
					for _, b := range r {
						out = append(out, append(append([]Expr(nil), a...), b...))
					}
				}
				return out
			}
			return append(l, r...)
		}
		op := v.Op
		if neg {
			op = map[string]string{"=": "<>", "<>": "="}[op]
		}
		return [][]Expr{{&BinOp{Op: op, L: v.L, R: v.R}}}
	}
	panic("unsupported predicate " + exprString(x))
}

func dnfString(x Expr) string {
	var ds []string
	for _, conj := range toDNF(x, false) {
		parts := make([]string, len(conj))
		for i, c := range conj {
			parts[i] = exprString(c)
		}
		ds = append(ds, "("+strings.Join(parts, " and ")+")")
	}
	return strings.Join(ds, "\n or ")
}

func sortedRows(rows [][]relation.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "|")
	}
	sort.Strings(out)
	return out
}

// TestJoinHoistingMatchesBruteForce: random 2- and 3-source queries whose
// OR conjuncts mix disjuncts over the inner source only, an outer source
// only, and both (the shape hoisting splits), with NOT, nested AND, rowid
// references, an optional hash-join key and an optional derived table.
// Plain projections (rowids, CASE masking) and GROUP BY / HAVING
// count(distinct …) must equal a cross product filtered in Go, in the
// CNF-like form as written and in its DNF rewrite.
func TestJoinHoistingMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	vals := []string{"0", "1", "2", "_"}
	hoistedPlans := 0
	for iter := 0; iter < 200; iter++ {
		db := NewDB()
		nsrc := 2 + rng.Intn(2)
		srcs := make([]bruteSource, nsrc)
		var from []string
		for s := range srcs {
			table := fmt.Sprintf("t%d", s)
			srcs[s].alias = fmt.Sprintf("s%d", s)
			mustExec(t, db, fmt.Sprintf("create table %s (x text, y text)", table))
			var rows [][]string
			var ins []string
			for i := 0; i < 1+rng.Intn(6); i++ {
				r := []string{vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]}
				rows = append(rows, r)
				ins = append(ins, fmt.Sprintf("('%s','%s')", r[0], r[1]))
			}
			mustExec(t, db, fmt.Sprintf("insert into %s values %s", table, strings.Join(ins, ", ")))
			if s == 0 && rng.Intn(3) == 0 {
				// A derived table: swapped columns, filtered; its rowid is
				// the position in the derived result.
				for _, r := range rows {
					if r[0] != "2" {
						srcs[s].rows = append(srcs[s].rows, []string{r[1], r[0]})
					}
				}
				from = append(from, fmt.Sprintf("(select u.y as x, u.x as y from %s u where u.x <> '2') %s", table, srcs[s].alias))
				continue
			}
			srcs[s].rows = rows
			from = append(from, table+" "+srcs[s].alias)
		}

		col := func(s int) Expr {
			return &ColRef{Qual: srcs[s].alias, Name: []string{"x", "y", RowidColumn}[rng.Intn(3)]}
		}
		cmp := func(l, r Expr) Expr {
			op := "="
			if rng.Intn(3) == 0 {
				op = "<>"
			}
			return &BinOp{Op: op, L: l, R: r}
		}
		maybeNot := func(e Expr) Expr {
			if rng.Intn(4) == 0 {
				return &NotOp{E: e}
			}
			return e
		}
		single := func(s int) Expr {
			e := cmp(col(s), &Lit{Val: vals[rng.Intn(len(vals))]})
			if rng.Intn(4) == 0 {
				e = &BinOp{Op: "AND", L: e, R: cmp(col(s), &Lit{Val: vals[rng.Intn(len(vals))]})}
			}
			return maybeNot(e)
		}
		var where Expr
		for c := 0; c < 1+rng.Intn(3); c++ {
			outer := rng.Intn(nsrc - 1)
			inner := outer + 1 + rng.Intn(nsrc-1-outer)
			ds := []Expr{single(inner), single(outer), maybeNot(cmp(col(outer), col(inner)))}
			rng.Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
			clause := orOf(ds)
			if rng.Intn(8) == 0 {
				clause = &NotOp{E: clause}
			}
			if where == nil {
				where = clause
			} else {
				where = &BinOp{Op: "AND", L: where, R: clause}
			}
		}
		if rng.Intn(3) == 0 {
			// A plain equality conjunct turns its step into a hash join;
			// hoisting must hold there too.
			key := &BinOp{Op: "=", L: &ColRef{Qual: "s0", Name: "x"}, R: &ColRef{Qual: srcs[nsrc-1].alias, Name: "x"}}
			where = &BinOp{Op: "AND", L: where, R: key}
		}
		last := srcs[nsrc-1].alias

		// Plain projection: every rowid, a CASE mask, a column.
		items := []Expr{
			&ColRef{Qual: "s0", Name: RowidColumn},
			&ColRef{Qual: "s1", Name: RowidColumn},
			&CaseExpr{Whens: []When{{Cond: &BinOp{Op: "=", L: &ColRef{Qual: "s1", Name: "y"}, R: &Lit{Val: "_"}}, Then: &Lit{Val: "@"}}},
				Else: &ColRef{Qual: "s0", Name: "y"}},
			&ColRef{Qual: last, Name: "x"},
		}
		var itemSQL []string
		for i, it := range items {
			itemSQL = append(itemSQL, fmt.Sprintf("%s as c%d", exprString(it), i))
		}
		var want [][]relation.Value
		crossProduct(srcs, where, func(e *bruteEnv) {
			row := make([]relation.Value, len(items))
			for i, it := range items {
				row[i] = e.val(it)
			}
			want = append(want, row)
		})

		// Grouped: group by s0.x, count distinct (s1.y, last rowid),
		// HAVING over both the aggregate and the group key.
		type group struct {
			key      string
			distinct map[string]bool
		}
		var groups []*group
		byKey := map[string]*group{}
		crossProduct(srcs, where, func(e *bruteEnv) {
			k := e.srcs[0].rows[e.pos[0]][0]
			g := byKey[k]
			if g == nil {
				g = &group{key: k, distinct: map[string]bool{}}
				byKey[k] = g
				groups = append(groups, g)
			}
			g.distinct[e.srcs[1].rows[e.pos[1]][1]+"|"+strconv.Itoa(e.pos[nsrc-1])] = true
		})
		var wantGrouped [][]relation.Value
		for _, g := range groups {
			if n := len(g.distinct); n > 1 || g.key == "1" {
				wantGrouped = append(wantGrouped, []relation.Value{g.key, strconv.Itoa(n)})
			}
		}

		for _, form := range []struct{ name, where string }{
			{"as written", exprString(where)},
			{"DNF", dnfString(where)},
		} {
			q := fmt.Sprintf("select %s from %s where %s", strings.Join(itemSQL, ", "), strings.Join(from, ", "), form.where)
			res := mustQuery(t, db, q)
			if got := sortedRows(res.Rows); !reflect.DeepEqual(got, sortedRows(want)) {
				t.Fatalf("iter %d, %s:\n%s\ngot  %v\nwant %v", iter, form.name, q, got, sortedRows(want))
			}
			gq := fmt.Sprintf(`select s0.x, count(distinct s1.y, %[1]s._rowid) as n from %[2]s where %[3]s
				group by s0.x having count(distinct s1.y, %[1]s._rowid) > 1 or s0.x = '1'`,
				last, strings.Join(from, ", "), form.where)
			res = mustQuery(t, db, gq)
			if got := sortedRows(res.Rows); !reflect.DeepEqual(got, sortedRows(wantGrouped)) {
				t.Fatalf("iter %d, %s:\n%s\ngot  %v\nwant %v", iter, form.name, gq, got, sortedRows(wantGrouped))
			}
			if form.name == "as written" && strings.Contains(mustExplain(t, db, q), "hoisted") {
				hoistedPlans++
			}
		}
	}
	if hoistedPlans < 100 {
		t.Errorf("only %d of 200 queries planned a hoisted filter; the test no longer exercises hoisting", hoistedPlans)
	}
}
