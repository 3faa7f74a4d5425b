package sqlmini

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/relation"
)

// project turns surviving WHERE rows (flat provenance, see runWhere) into
// the final result: grouping and aggregation (GROUP BY / HAVING / COUNT),
// projection, DISTINCT, ORDER BY.
func (ex *selectExec) project(rows []int32) (*Result, error) {
	s := ex.stmt

	// Expand the select list: star items become explicit column refs
	// (hiding the rowid pseudo-columns).
	items, err := ex.expandItems()
	if err != nil {
		return nil, err
	}

	// Detect aggregate context.
	var aggNodes []*CountExpr
	for _, it := range items {
		aggNodes = collectAggregates(it.Expr, aggNodes)
	}
	if s.Having != nil {
		aggNodes = collectAggregates(s.Having, aggNodes)
	}
	grouped := len(s.GroupBy) > 0 || len(aggNodes) > 0
	if s.Having != nil && !grouped {
		return nil, fmt.Errorf("sqlmini: HAVING requires GROUP BY or aggregates")
	}

	var outRows [][]relation.Value
	var outCols []string

	if grouped {
		outCols, outRows, err = ex.projectGrouped(rows, items, aggNodes)
	} else {
		outCols, outRows, err = ex.projectPlain(rows, items)
	}
	if err != nil {
		return nil, err
	}

	if s.Distinct {
		seen := make(map[string]bool, len(outRows))
		kept := outRows[:0]
		for _, r := range outRows {
			k := relation.EncodeKey(r)
			if !seen[k] {
				seen[k] = true
				kept = append(kept, r)
			}
		}
		outRows = kept
	}

	if len(s.OrderBy) > 0 {
		if err := orderRows(outCols, outRows, s.OrderBy); err != nil {
			return nil, err
		}
	}
	return &Result{Cols: outCols, Rows: outRows}, nil
}

func (ex *selectExec) expandItems() ([]SelectItem, error) {
	s := ex.stmt
	var items []SelectItem
	addStar := func(src *execSource) {
		for _, c := range src.cols {
			if c == RowidColumn {
				continue
			}
			items = append(items, SelectItem{Expr: &ColRef{Qual: src.alias, Name: c}, As: c})
		}
	}
	if s.Star {
		for _, src := range ex.sources {
			addStar(src)
		}
	}
	for _, it := range s.Items {
		if it.Qual != "" { // alias.*
			found := false
			for _, src := range ex.sources {
				if src.alias == it.Qual {
					addStar(src)
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("sqlmini: unknown alias %q in %s.*", it.Qual, it.Qual)
			}
			continue
		}
		items = append(items, it)
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("sqlmini: empty select list")
	}
	return items, nil
}

func itemName(it SelectItem) string {
	if it.As != "" {
		return it.As
	}
	if ref, ok := it.Expr.(*ColRef); ok {
		return ref.Name
	}
	return exprString(it.Expr)
}

func (ex *selectExec) projectPlain(rows []int32, items []SelectItem) ([]string, [][]relation.Value, error) {
	comp := &compiler{scope: ex.scope}
	fns := make([]valFn, len(items))
	cols := make([]string, len(items))
	for i, it := range items {
		fn, err := comp.compileVal(it.Expr)
		if err != nil {
			return nil, nil, err
		}
		fns[i] = fn
		cols[i] = itemName(it)
	}
	n := len(ex.sources)
	f := newFrame(n)
	out := make([][]relation.Value, len(rows)/n)
	// One backing array for every output row.
	vals := make([]relation.Value, len(out)*len(fns))
	for ri := range out {
		ex.load(f, rows[ri*n:(ri+1)*n])
		row := vals[ri*len(fns) : (ri+1)*len(fns) : (ri+1)*len(fns)]
		for i, fn := range fns {
			row[i] = fn(f)
		}
		out[ri] = row
	}
	return cols, out, nil
}

// aggState accumulates one aggregate within one group.
type aggState struct {
	count    int
	distinct map[string]struct{}
}

func (ex *selectExec) projectGrouped(rows []int32, items []SelectItem, aggNodes []*CountExpr) ([]string, [][]relation.Value, error) {
	s := ex.stmt
	inComp := &compiler{scope: ex.scope}

	// Compile group keys and aggregate argument extractors against the
	// input (pre-aggregation) scope.
	keyFns := make([]valFn, len(s.GroupBy))
	for i, g := range s.GroupBy {
		fn, err := inComp.compileVal(g)
		if err != nil {
			return nil, nil, err
		}
		keyFns[i] = fn
	}
	slots := make(map[*CountExpr]int, len(aggNodes))
	type aggPlan struct {
		node *CountExpr
		args []valFn
	}
	var plans []aggPlan
	for _, n := range aggNodes {
		if _, dup := slots[n]; dup {
			continue
		}
		slots[n] = len(plans)
		p := aggPlan{node: n}
		for _, a := range n.Args {
			fn, err := inComp.compileVal(a)
			if err != nil {
				return nil, nil, err
			}
			p.args = append(p.args, fn)
		}
		plans = append(plans, p)
	}

	// Group.
	type group struct {
		first []int32 // provenance of the group's first row
		aggs  []aggState
	}
	n := len(ex.sources)
	f := newFrame(n)
	groups := make(map[string]*group)
	var order []*group
	keyBuf := make([]relation.Value, len(keyFns))
	argBuf := make([]relation.Value, 8)
	var enc []byte
	for off := 0; off < len(rows); off += n {
		prov := rows[off : off+n]
		ex.load(f, prov)
		for i, fn := range keyFns {
			keyBuf[i] = fn(f)
		}
		enc = relation.AppendKey(enc[:0], keyBuf)
		g, ok := groups[string(enc)]
		if !ok {
			g = &group{first: prov, aggs: make([]aggState, len(plans))}
			for i, p := range plans {
				if p.node.Distinct {
					g.aggs[i].distinct = make(map[string]struct{})
				}
			}
			groups[string(enc)] = g
			order = append(order, g)
		}
		for i, p := range plans {
			switch {
			case p.node.Star, !p.node.Distinct:
				g.aggs[i].count++
			default:
				args := argBuf[:0]
				for _, fn := range p.args {
					args = append(args, fn(f))
				}
				enc = relation.AppendKey(enc[:0], args)
				if _, seen := g.aggs[i].distinct[string(enc)]; !seen {
					g.aggs[i].distinct[string(enc)] = struct{}{}
				}
			}
		}
	}

	// Compile HAVING and the select list in aggregate context: aggregate
	// values live in the frame's slots.
	aggComp := &compiler{scope: ex.scope, aggs: slots}
	var havingFn boolFn
	if s.Having != nil {
		fn, err := aggComp.compileBool(s.Having)
		if err != nil {
			return nil, nil, err
		}
		havingFn = fn
	}
	fns := make([]valFn, len(items))
	cols := make([]string, len(items))
	for i, it := range items {
		fn, err := aggComp.compileVal(it.Expr)
		if err != nil {
			return nil, nil, err
		}
		fns[i] = fn
		cols[i] = itemName(it)
	}

	var out [][]relation.Value
	f.aggs = make([]relation.Value, len(plans))
	for _, g := range order {
		ex.load(f, g.first)
		for i := range plans {
			c := g.aggs[i].count
			if g.aggs[i].distinct != nil {
				c = len(g.aggs[i].distinct)
			}
			f.aggs[i] = strconv.Itoa(c)
		}
		if havingFn != nil && !havingFn(f) {
			continue
		}
		vals := make([]relation.Value, len(fns))
		for i, fn := range fns {
			vals[i] = fn(f)
		}
		out = append(out, vals)
	}
	return cols, out, nil
}

func orderRows(cols []string, rows [][]relation.Value, by []OrderItem) error {
	type sortKey struct {
		idx  int
		desc bool
	}
	keys := make([]sortKey, len(by))
	outScope := &scope{}
	for i, c := range cols {
		outScope.cols = append(outScope.cols, column{name: c, col: i})
	}
	for i, o := range by {
		ref, ok := o.Expr.(*ColRef)
		if !ok {
			return fmt.Errorf("sqlmini: ORDER BY supports output column references only, got %s", exprString(o.Expr))
		}
		c, err := outScope.resolve("", ref.Name)
		if err != nil {
			return err
		}
		keys[i] = sortKey{idx: c.col, desc: o.Desc}
	}
	sort.SliceStable(rows, func(a, b int) bool {
		for _, k := range keys {
			c := compareValues(rows[a][k.idx], rows[b][k.idx])
			if c == 0 {
				continue
			}
			if k.desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return nil
}
