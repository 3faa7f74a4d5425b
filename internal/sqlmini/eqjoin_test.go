package sqlmini

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/relation"
)

// TestValueIDJoinMatchesBruteForce: random 2- and 3-source CNF queries
// built around the merged-CNF conjunct (o.c = i.c or i.c = '_' or
// i.c = '@'), whose rest is one cross-source equality and so runs as a
// value-ID compare, beside look-alikes that must not: <>, NOT, a rest of
// two disjuncts, a rest equality between two other sources, a negated
// clause and an AND inside the rest. Every source draws from shared
// values plus one of its own (outer values absent from the inner column),
// the digits collide with rowids, columns include _rowid, an inner source
// may be a derived table or carry a prefilter, and an optional equality
// conjunct makes a step a hash join. Results must equal a cross product
// filtered in Go, in the same order when no step hashes; the plan must
// take the ID path for exactly the merged-shape conjuncts when no step
// hashes, and never for a look-alike.
func TestValueIDJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const iters = 300
	idPlans := 0
	for iter := 0; iter < iters; iter++ {
		db := NewDB()
		nsrc := 2 + rng.Intn(2)
		srcs := make([]bruteSource, nsrc)
		var from []string
		for s := range srcs {
			vals := []string{"0", "1", "2", "_", "@", fmt.Sprintf("v%d", s)}
			table := fmt.Sprintf("t%d", s)
			srcs[s].alias = fmt.Sprintf("s%d", s)
			mustExec(t, db, fmt.Sprintf("create table %s (x text, y text)", table))
			var rows [][]string
			var ins []string
			for i := 0; i < 1+rng.Intn(7); i++ {
				r := []string{vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]}
				rows = append(rows, r)
				ins = append(ins, fmt.Sprintf("('%s','%s')", r[0], r[1]))
			}
			mustExec(t, db, fmt.Sprintf("insert into %s values %s", table, strings.Join(ins, ", ")))
			if s > 0 && rng.Intn(3) == 0 {
				// A derived inner source: swapped columns, filtered; its
				// rowid is the position in the derived result.
				for _, r := range rows {
					if r[0] != "1" {
						srcs[s].rows = append(srcs[s].rows, []string{r[1], r[0]})
					}
				}
				from = append(from, fmt.Sprintf("(select u.y as x, u.x as y from %s u where u.x <> '1') %s", table, srcs[s].alias))
				continue
			}
			srcs[s].rows = rows
			from = append(from, table+" "+srcs[s].alias)
		}

		col := func(s int) Expr {
			return &ColRef{Qual: srcs[s].alias, Name: []string{"x", "y", RowidColumn}[rng.Intn(3)]}
		}
		eq := func(l, r Expr) Expr { return &BinOp{Op: "=", L: l, R: r} }
		// flags are the disjuncts over the inner source alone.
		flags := func(i int) []Expr {
			c := col(i)
			ds := []Expr{eq(c, &Lit{Val: "_"})}
			if rng.Intn(3) > 0 {
				ds = append(ds, eq(c, &Lit{Val: "@"}))
			}
			return ds
		}
		var conjuncts []Expr
		merged := 0
		for c := 0; c < 2+rng.Intn(3); c++ {
			o := rng.Intn(nsrc - 1)
			i := o + 1 + rng.Intn(nsrc-1-o)
			link := eq(col(o), col(i))
			if rng.Intn(2) == 0 {
				link = eq(col(i), col(o))
			}
			var rest Expr
			switch shape := rng.Intn(12); {
			case shape < 6: // the merged-CNF conjunct
				rest = link
				merged++
			case shape == 6:
				rest = &BinOp{Op: "<>", L: col(o), R: col(i)}
			case shape == 7:
				rest = &NotOp{E: link}
			case shape == 8:
				rest = &BinOp{Op: "OR", L: link, R: eq(col(o), &Lit{Val: "_"})}
			case shape == 9:
				rest = &BinOp{Op: "AND", L: link, R: eq(col(o), col(i))}
			case shape == 10 && nsrc == 3:
				// The rest equality links the two sources before the step's.
				rest, i = eq(col(0), col(1)), 2
			default:
				conjuncts = append(conjuncts, &NotOp{E: orOf(append([]Expr{link}, flags(i)...))})
				continue
			}
			ds := append([]Expr{rest}, flags(i)...)
			rng.Shuffle(len(ds), func(a, b int) { ds[a], ds[b] = ds[b], ds[a] })
			conjuncts = append(conjuncts, orOf(ds))
		}
		if rng.Intn(4) == 0 {
			// A prefilter: the ID arrays are indexed by row position, and
			// filtered rows must never match.
			conjuncts = append(conjuncts, &BinOp{Op: "<>", L: &ColRef{Qual: srcs[nsrc-1].alias, Name: "y"}, R: &Lit{Val: "@"}})
		}
		if rng.Intn(4) == 0 {
			conjuncts = append(conjuncts, eq(&ColRef{Qual: "s0", Name: "x"}, &ColRef{Qual: srcs[nsrc-1].alias, Name: "x"}))
		}
		rng.Shuffle(len(conjuncts), func(a, b int) { conjuncts[a], conjuncts[b] = conjuncts[b], conjuncts[a] })
		where := conjuncts[0]
		for _, c := range conjuncts[1:] {
			where = &BinOp{Op: "AND", L: where, R: c}
		}

		var items []string
		var refs []Expr
		for s := range srcs {
			refs = append(refs, &ColRef{Qual: srcs[s].alias, Name: RowidColumn})
		}
		refs = append(refs, &ColRef{Qual: srcs[nsrc-1].alias, Name: "y"})
		for k, r := range refs {
			items = append(items, fmt.Sprintf("%s as c%d", exprString(r), k))
		}
		var want [][]relation.Value
		crossProduct(srcs, where, func(e *bruteEnv) {
			row := make([]relation.Value, len(refs))
			for k, r := range refs {
				row[k] = e.val(r)
			}
			want = append(want, row)
		})

		q := fmt.Sprintf("select %s from %s where %s", strings.Join(items, ", "), strings.Join(from, ", "), exprString(where))
		plan := planOf(t, db, q)
		hashed, eqs := false, 0
		for _, st := range plan.steps {
			hashed = hashed || len(st.buildKeys) > 0
			eqs += len(st.eqs)
		}
		if eqs > merged || (!hashed && eqs != merged) {
			t.Fatalf("iter %d: %d conjuncts planned as value-ID compares, want %d (hash step: %v):\n%s", iter, eqs, merged, hashed, q)
		}
		if eqs > 0 {
			idPlans++
		}

		res := mustQuery(t, db, q)
		got := res.Rows
		if got == nil {
			got = [][]relation.Value{}
		}
		if want == nil {
			want = [][]relation.Value{}
		}
		if hashed {
			if !reflect.DeepEqual(sortedRows(got), sortedRows(want)) {
				t.Fatalf("iter %d:\n%s\ngot  %v\nwant %v", iter, q, sortedRows(got), sortedRows(want))
			}
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d (rows in order):\n%s\ngot  %v\nwant %v", iter, q, got, want)
		}
	}
	if idPlans < 200 {
		t.Errorf("only %d of %d queries planned a value-ID compare; the test no longer exercises the path", idPlans, iters)
	}
}

// planOf plans the single disjunct of a CNF query.
func planOf(t *testing.T, db *DB, sql string) *disjunctPlan {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*Select)
	ex := &selectExec{db: db, stmt: sel}
	if err := ex.buildSources(); err != nil {
		t.Fatal(err)
	}
	if ds := splitOr(sel.Where, nil); len(ds) != 1 {
		t.Fatalf("want one conjunction, got %d disjuncts:\n%s", len(ds), sql)
	}
	plan, err := ex.planDisjunct(sel.Where)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}
