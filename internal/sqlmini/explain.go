package sqlmini

import (
	"fmt"
	"strings"
)

// Explain renders the physical plan of a SELECT without executing it —
// the window into the optimizer effect the paper's Section 5 discusses:
// CNF WHERE clauses (every conjunct carrying OR) plan as nested loops,
// while DNF disjuncts plan hash joins from their equality conjuncts. A
// step's "hoisted" count is how many of its residual filters evaluate
// their own-source disjuncts once per row instead of once per pair.
func (db *DB) Explain(sql string) (string, error) {
	st, err := Parse(sql)
	if err != nil {
		return "", err
	}
	sel, ok := st.(*Select)
	if !ok {
		return "", fmt.Errorf("sqlmini: Explain expects a SELECT statement")
	}
	var b strings.Builder
	if err := db.explainSelect(sel, &b, ""); err != nil {
		return "", err
	}
	return b.String(), nil
}

func (db *DB) explainSelect(sel *Select, b *strings.Builder, indent string) error {
	ex := &selectExec{db: db, stmt: sel}
	if err := ex.buildSources(); err != nil {
		return err
	}
	for _, fi := range sel.From {
		if fi.Sub != nil {
			fmt.Fprintf(b, "%sderived table %s:\n", indent, fi.Alias)
			if err := db.explainSelect(fi.Sub, b, indent+"  "); err != nil {
				return err
			}
		}
	}

	var disjuncts []Expr
	if sel.Where == nil {
		disjuncts = []Expr{nil}
	} else {
		disjuncts = splitOr(sel.Where, nil)
	}
	form := "no predicate"
	if sel.Where != nil {
		if len(disjuncts) > 1 {
			form = fmt.Sprintf("DNF, %d disjuncts", len(disjuncts))
		} else {
			form = "single conjunction"
		}
	}
	fmt.Fprintf(b, "%sselect (%s)\n", indent, form)

	for di, d := range disjuncts {
		plan, err := ex.planDisjunct(d)
		if err != nil {
			return err
		}
		if len(disjuncts) > 1 {
			fmt.Fprintf(b, "%s  disjunct %d:\n", indent, di+1)
		}
		for si, st := range plan.steps {
			src := ex.sources[st.src]
			pre := ""
			if n := len(plan.prefilters[st.src]); n > 0 {
				pre = fmt.Sprintf(", %d prefilter(s)", n)
			}
			post := ""
			if n := len(st.atoms) + len(st.hoisted) + len(st.eqs); n > 0 {
				post = fmt.Sprintf(", %d residual filter(s)", n)
			}
			if n := len(st.hoisted) + len(st.eqs); n > 0 {
				post += fmt.Sprintf(", %d hoisted", n)
			}
			stepIndent := indent + "  "
			if len(disjuncts) > 1 {
				stepIndent = indent + "    "
			}
			switch {
			case si == 0:
				fmt.Fprintf(b, "%sscan %s (%d rows%s%s)\n", stepIndent, src.alias, len(src.rows), pre, post)
			case len(st.buildKeys) > 0:
				keys := make([]string, len(st.buildKeys))
				for i, bk := range st.buildKeys {
					keys[i] = bk.qual + "." + bk.name
				}
				fmt.Fprintf(b, "%shash join %s on (%s) (%d rows%s%s)\n",
					stepIndent, src.alias, strings.Join(keys, ", "), len(src.rows), pre, post)
			default:
				fmt.Fprintf(b, "%snested loop %s (%d rows%s%s)\n", stepIndent, src.alias, len(src.rows), pre, post)
			}
		}
	}

	items, err := ex.expandItems()
	if err != nil {
		return err
	}
	var aggs []*CountExpr
	for _, it := range items {
		aggs = collectAggregates(it.Expr, aggs)
	}
	if sel.Having != nil {
		aggs = collectAggregates(sel.Having, aggs)
	}
	if len(sel.GroupBy) > 0 || len(aggs) > 0 {
		having := ""
		if sel.Having != nil {
			having = ", having"
		}
		fmt.Fprintf(b, "%s  aggregate (%d group key(s), %d aggregate(s)%s)\n",
			indent, len(sel.GroupBy), len(aggs), having)
	}
	var post []string
	if sel.Distinct {
		post = append(post, "distinct")
	}
	if len(sel.OrderBy) > 0 {
		post = append(post, fmt.Sprintf("order by %d key(s)", len(sel.OrderBy)))
	}
	if len(post) > 0 {
		fmt.Fprintf(b, "%s  %s\n", indent, strings.Join(post, ", "))
	}
	return nil
}
