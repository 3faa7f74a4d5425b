package sqlmini

// Execution over row positions.
//
// A SELECT never builds a joined row. Every FROM item is materialized once
// as an execSource (a base table's tuples are shared, not copied), and a
// column reference compiles to (source, column). Compiled expressions read
// a frame: each source's current row and rowid, read in place, plus the
// aggregate slots of a grouped query. The join enumeration sets one
// source's frame entry per candidate row, and a surviving row is kept as
// its provenance only — one int32 position per source, in a flat slice;
// projection, grouping and HAVING load the frame back from it.
//
// Hoisting: at a join step, a conjunct of the form (d1 OR d2 OR ...) may
// have disjuncts that read only the step's own source — the merged CNF
// queries' (txp.A = '_' or txp.A = '@'). Those are evaluated once per
// source row before the enumeration, and the per-pair test becomes
// flag[j] || rest(frame). When rest is one equality between a column of
// the step's source and a column of a source joined before it — the
// t.A = txp.A of (t.A = txp.A or txp.A = '_' or txp.A = '@') — the test
// compares value IDs instead, with no closure: the step's column is
// interned over its filtered rows into dense int32 IDs, one dictionary
// per such conjunct, held contiguously per row with the flag folded in
// as a match-all sentinel. Per outer row the other side's value is looked
// up once per conjunct (a value the dictionary lacks matches only flagged
// rows); per pair the IDs are compared before the frame is loaded for the
// remaining filters. Values are strings compared with ==, so equal IDs
// are equal values, rowids included, and the output rows and their order
// are those of the closure test. Every pair is still visited, so a CNF
// WHERE clause still plans and runs as a nested loop; Explain counts both
// kinds as hoisted.

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"repro/internal/relation"
)

// RowidColumn is the pseudo-column every base table (and derived table)
// exposes: the 0-based position of the row in its source. The detection
// queries project it so that violations can be mapped back to tuples.
const RowidColumn = "_rowid"

// Result is a fully materialized query result.
type Result struct {
	Cols []string
	Rows [][]relation.Value
}

// execSource is one FROM item, materialized. cols ends with RowidColumn,
// which is not stored in rows.
type execSource struct {
	alias  string
	cols   []string
	rows   [][]relation.Value
	rowids []relation.Value
}

// value reads column col (or the rowid) of row j.
func (s *execSource) value(j, col int) relation.Value {
	if col == rowidCol {
		return s.rowids[j]
	}
	return s.rows[j][col]
}

// atom is one WHERE conjunct with the set of sources it references.
type atom struct {
	e    Expr
	mask uint64
	fn   boolFn
}

// equiCand is an equality conjunct between column references of two
// different sources — the only conjunct shape the planner can turn into a
// hash join (mirroring the optimizer behaviour the paper reports).
type equiCand struct {
	a        *atom
	l, r     column
	consumed bool
}

// hoistedAtom is a conjunct split at a join step: inner ORs the disjuncts
// that read only the step's source, rest the others. flags holds inner per
// source row, filled at execution.
type hoistedAtom struct {
	inner, rest boolFn
	flags       []bool
}

// eqAtom is a hoisted conjunct whose rest is the equality in = out, in a
// column of the step's source and out one of a source joined before it.
// Its pair test compares value IDs (see the file comment).
type eqAtom struct {
	inner   boolFn
	in, out column
}

// Value-ID sentinels: a row whose hoisted flag holds matches every outer
// value; an outer value missing from the dictionary matches only those.
const (
	matchAll int32 = -1
	absent   int32 = -2
)

// joinStep joins one source into the accumulated row, either by hash
// lookup (probeKeys/buildKeys non-empty) or nested iteration.
type joinStep struct {
	src       int
	probeKeys []valFn  // read from the sources already joined
	buildKeys []column // columns of the new source
	atoms     []boolFn
	hoisted   []*hoistedAtom
	eqs       []eqAtom

	// Built at execution time.
	hash  map[string][]int
	dicts []map[relation.Value]int32 // per eq: its in column's value IDs
	ids   []int32                    // len(eqs) per source row
	probe []int32                    // per eq: the current outer value's ID
}

type selectExec struct {
	db      *DB
	stmt    *Select
	sources []*execSource
	scope   *scope
}

func (db *DB) runSelect(s *Select) (*Result, error) {
	ex := &selectExec{db: db, stmt: s}
	if err := ex.buildSources(); err != nil {
		return nil, err
	}
	rows, err := ex.runWhere()
	if err != nil {
		return nil, err
	}
	return ex.project(rows)
}

func (ex *selectExec) buildSources() error {
	if len(ex.stmt.From) == 0 {
		return fmt.Errorf("sqlmini: SELECT requires a FROM clause")
	}
	ex.scope = &scope{}
	seen := make(map[string]bool)
	for si, fi := range ex.stmt.From {
		if seen[fi.Alias] {
			return fmt.Errorf("sqlmini: duplicate FROM alias %q", fi.Alias)
		}
		seen[fi.Alias] = true
		src := &execSource{alias: fi.Alias}
		if fi.Sub != nil {
			res, err := ex.db.runSelect(fi.Sub)
			if err != nil {
				return err
			}
			src.cols = append(append([]string(nil), res.Cols...), RowidColumn)
			src.rows = res.Rows
		} else {
			rel, ok := ex.db.Table(fi.Table)
			if !ok {
				return fmt.Errorf("sqlmini: unknown table %q", fi.Table)
			}
			src.cols = append(rel.Schema.Names(), RowidColumn)
			src.rows = make([][]relation.Value, len(rel.Tuples))
			for i, t := range rel.Tuples {
				src.rows[i] = t
			}
		}
		src.rowids = make([]relation.Value, len(src.rows))
		for i := range src.rowids {
			src.rowids[i] = strconv.Itoa(i)
		}
		for ci, c := range src.cols {
			if ci == len(src.cols)-1 {
				ci = rowidCol
			}
			ex.scope.cols = append(ex.scope.cols, column{qual: src.alias, name: c, src: si, col: ci})
		}
		ex.sources = append(ex.sources, src)
	}
	return nil
}

// set makes row j of source s (materialized as src) the frame's current one.
func (f *frame) set(s int, src *execSource, j int) {
	f.rows[s], f.rowids[s], f.pos[s] = src.rows[j], src.rowids[j], int32(j)
}

// load points the frame at the joined row with provenance prov.
func (ex *selectExec) load(f *frame, prov []int32) {
	for s, j := range prov {
		f.set(s, ex.sources[s], int(j))
	}
}

// runWhere evaluates the FROM/WHERE part and returns the surviving rows as
// flat provenance: row i is out[i*n:(i+1)*n] for n sources. The WHERE
// clause is first split into top-level disjuncts; each disjunct is planned
// independently (its equality conjuncts drive hash joins), and results
// are unioned with dedup on provenance. A single disjunct whose conjuncts
// contain OR — the CNF shape — yields no usable join keys and executes as
// nested loops, reproducing the paper's CNF-vs-DNF optimizer effect.
func (ex *selectExec) runWhere() ([]int32, error) {
	var disjuncts []Expr
	if ex.stmt.Where == nil {
		disjuncts = []Expr{nil}
	} else {
		disjuncts = splitOr(ex.stmt.Where, nil)
	}
	n := len(ex.sources)
	var out []int32
	var seen map[string]struct{}
	if len(disjuncts) > 1 {
		seen = make(map[string]struct{})
	}
	var key []byte
	for _, d := range disjuncts {
		plan, err := ex.planDisjunct(d)
		if err != nil {
			return nil, err
		}
		rows := ex.execDisjunct(plan)
		if seen == nil {
			out = rows
			continue
		}
		for i := 0; i < len(rows); i += n {
			key = key[:0]
			for _, p := range rows[i : i+n] {
				key = binary.LittleEndian.AppendUint32(key, uint32(p))
			}
			if _, dup := seen[string(key)]; !dup {
				seen[string(key)] = struct{}{}
				out = append(out, rows[i:i+n]...)
			}
		}
	}
	return out, nil
}

// disjunctPlan is the physical plan of one disjunct: per-source
// prefilters plus an ordered list of join steps.
type disjunctPlan struct {
	prefilters [][]boolFn
	steps      []*joinStep
}

// maskOf is the set of sources an expression references.
func (ex *selectExec) maskOf(e Expr) (uint64, error) {
	var mask uint64
	for _, ref := range colRefsOf(e, nil) {
		c, err := ex.scope.resolve(ref.Qual, ref.Name)
		if err != nil {
			return 0, err
		}
		mask |= 1 << uint(c.src)
	}
	return mask, nil
}

// planDisjunct classifies the disjunct's conjuncts (prefilter / hash-join
// candidate / residual filter) and picks a join order, greedily
// preferring hash-joinable sources. This is where the paper's optimizer
// effect lives: a conjunct containing OR can never become a join key.
func (ex *selectExec) planDisjunct(d Expr) (*disjunctPlan, error) {
	comp := &compiler{scope: ex.scope}

	var conjuncts []Expr
	if d != nil {
		conjuncts = splitAnd(d, nil)
	}
	prefilters := make([][]boolFn, len(ex.sources))
	var atoms []*atom
	var equis []*equiCand
	for _, c := range conjuncts {
		fn, err := comp.compileBool(c)
		if err != nil {
			return nil, err
		}
		mask, err := ex.maskOf(c)
		if err != nil {
			return nil, err
		}
		a := &atom{e: c, mask: mask, fn: fn}
		// Single-source (or constant) conjuncts become prefilters.
		if n, only := popcountOne(mask); n <= 1 {
			idx := only
			if n == 0 {
				idx = 0
			}
			prefilters[idx] = append(prefilters[idx], fn)
			continue
		}
		// Equality between two column references of different sources is a
		// hash-join candidate.
		if l, r, ok := ex.colEq(c); ok {
			equis = append(equis, &equiCand{a: a, l: l, r: r})
			continue
		}
		atoms = append(atoms, a)
	}

	// Plan the join order: greedily prefer hash-joinable sources.
	steps := []*joinStep{{src: 0}}
	joinedMask := uint64(1)
	assigned := make(map[*atom]bool)
	for len(steps) < len(ex.sources) {
		next := -1
		for cand := 1; cand < len(ex.sources); cand++ {
			if joinedMask&(1<<uint(cand)) != 0 {
				continue
			}
			for _, e := range equis {
				if e.consumed {
					continue
				}
				if (e.l.src == cand && joinedMask&(1<<uint(e.r.src)) != 0) ||
					(e.r.src == cand && joinedMask&(1<<uint(e.l.src)) != 0) {
					next = cand
					break
				}
			}
			if next >= 0 {
				break
			}
		}
		step := &joinStep{}
		if next < 0 {
			// No hash-joinable source: nested-loop the next unjoined one.
			for cand := 1; cand < len(ex.sources); cand++ {
				if joinedMask&(1<<uint(cand)) == 0 {
					next = cand
					break
				}
			}
			step.src = next
		} else {
			step.src = next
			for _, e := range equis {
				if e.consumed {
					continue
				}
				switch {
				case e.l.src == next && joinedMask&(1<<uint(e.r.src)) != 0:
					step.buildKeys = append(step.buildKeys, e.l)
					step.probeKeys = append(step.probeKeys, colFn(e.r))
					e.consumed = true
				case e.r.src == next && joinedMask&(1<<uint(e.l.src)) != 0:
					step.buildKeys = append(step.buildKeys, e.r)
					step.probeKeys = append(step.probeKeys, colFn(e.l))
					e.consumed = true
				}
			}
		}
		joinedMask |= 1 << uint(step.src)
		// Attach every atom that becomes fully resolvable at this step.
		for _, a := range atoms {
			if !assigned[a] && a.mask&^joinedMask == 0 {
				assigned[a] = true
				if err := ex.attach(step, a, comp); err != nil {
					return nil, err
				}
			}
		}
		// Unconsumed equi candidates spanning the joined set degrade to
		// plain filter atoms.
		for _, e := range equis {
			if !e.consumed && !assigned[e.a] && e.a.mask&^joinedMask == 0 {
				assigned[e.a] = true
				e.consumed = true
				step.atoms = append(step.atoms, e.a.fn)
			}
		}
		steps = append(steps, step)
	}
	return &disjunctPlan{prefilters: prefilters, steps: steps}, nil
}

// colEq reports whether e is an equality between column references of two
// different sources, and resolves them.
func (ex *selectExec) colEq(e Expr) (l, r column, ok bool) {
	b, isBin := e.(*BinOp)
	if !isBin || b.Op != "=" {
		return l, r, false
	}
	lRef, lok := b.L.(*ColRef)
	rRef, rok := b.R.(*ColRef)
	if !lok || !rok {
		return l, r, false
	}
	l, errL := ex.scope.resolve(lRef.Qual, lRef.Name)
	r, errR := ex.scope.resolve(rRef.Qual, rRef.Name)
	return l, r, errL == nil && errR == nil && l.src != r.src
}

// attach adds a residual conjunct to a join step, hoisting the disjuncts
// that read only the step's own source (see the file comment). A rest
// that is one equality with the step's source on one side becomes an
// eqAtom; the conjunct attaches once all its sources are joined, so the
// other side is a source joined before the step's.
func (ex *selectExec) attach(step *joinStep, a *atom, comp *compiler) error {
	var inner, rest []Expr
	for _, d := range splitOr(a.e, nil) {
		mask, err := ex.maskOf(d)
		if err != nil {
			return err
		}
		if mask&^(1<<uint(step.src)) == 0 {
			inner = append(inner, d)
		} else {
			rest = append(rest, d)
		}
	}
	if len(inner) == 0 {
		step.atoms = append(step.atoms, a.fn)
		return nil
	}
	innerFn, err := comp.compileBool(orOf(inner))
	if err != nil {
		return err
	}
	if len(rest) == 1 {
		if l, r, ok := ex.colEq(rest[0]); ok && (l.src == step.src || r.src == step.src) {
			if r.src == step.src {
				l, r = r, l
			}
			step.eqs = append(step.eqs, eqAtom{inner: innerFn, in: l, out: r})
			return nil
		}
	}
	restFn, err := comp.compileBool(orOf(rest))
	if err != nil {
		return err
	}
	step.hoisted = append(step.hoisted, &hoistedAtom{inner: innerFn, rest: restFn})
	return nil
}

// execDisjunct evaluates a planned disjunct: prefilter the sources, build
// the hash tables and hoisted flags, then enumerate join rows depth-first
// into flat provenance.
func (ex *selectExec) execDisjunct(plan *disjunctPlan) []int32 {
	steps := plan.steps
	f := newFrame(len(ex.sources))

	// Prefilter every source.
	filtered := make([][]int, len(ex.sources))
	for i, src := range ex.sources {
		idx := make([]int, 0, len(src.rows))
	rowLoop:
		for j := range src.rows {
			if len(plan.prefilters[i]) > 0 {
				f.set(i, src, j)
				for _, fn := range plan.prefilters[i] {
					if !fn(f) {
						continue rowLoop
					}
				}
			}
			idx = append(idx, j)
		}
		filtered[i] = idx
	}

	// Build hash tables and hoisted flags over the filtered rows. Keys are
	// encoded into one reused buffer; a probe does not allocate.
	var vals []relation.Value
	var key []byte
	for _, st := range steps[1:] {
		src := ex.sources[st.src]
		for _, h := range st.hoisted {
			h.flags = make([]bool, len(src.rows))
			for _, j := range filtered[st.src] {
				f.set(st.src, src, j)
				h.flags[j] = h.inner(f)
			}
		}
		if k := len(st.eqs); k > 0 {
			st.dicts = make([]map[relation.Value]int32, k)
			for a := range st.dicts {
				st.dicts[a] = make(map[relation.Value]int32)
			}
			st.ids = make([]int32, k*len(src.rows))
			st.probe = make([]int32, k)
			for _, j := range filtered[st.src] {
				f.set(st.src, src, j)
				for a, e := range st.eqs {
					id := matchAll
					if !e.inner(f) {
						dict, v := st.dicts[a], src.value(j, e.in.col)
						var ok bool
						if id, ok = dict[v]; !ok {
							id = int32(len(dict))
							dict[v] = id
						}
					}
					st.ids[j*k+a] = id
				}
			}
		}
		if len(st.buildKeys) == 0 {
			continue
		}
		st.hash = make(map[string][]int, len(filtered[st.src]))
		for _, j := range filtered[st.src] {
			vals = vals[:0]
			for _, bk := range st.buildKeys {
				vals = append(vals, src.value(j, bk.col))
			}
			key = relation.AppendKey(key[:0], vals)
			st.hash[string(key)] = append(st.hash[string(key)], j)
		}
	}

	// Enumerate: depth-first over the join steps, streaming into out.
	var out []int32
	var rec func(depth int)
	rec = func(depth int) {
		if depth == len(steps) {
			out = append(out, f.pos...)
			return
		}
		st := steps[depth]
		s, src := st.src, ex.sources[st.src]
		cands := filtered[s]
		if st.hash != nil {
			vals = vals[:0]
			for _, pk := range st.probeKeys {
				vals = append(vals, pk(f))
			}
			key = relation.AppendKey(key[:0], vals)
			cands = st.hash[string(key)]
		}
		k, ids, probe := len(st.eqs), st.ids, st.probe
		for a, e := range st.eqs {
			id, ok := st.dicts[a][ex.sources[e.out.src].value(int(f.pos[e.out.src]), e.out.col)]
			if !ok {
				id = absent
			}
			probe[a] = id
		}
	pairs:
		for _, j := range cands {
			row := ids[j*k:][:len(probe)]
			for a, id := range probe {
				if row[a] != id && row[a] != matchAll {
					continue pairs
				}
			}
			f.set(s, src, j)
			for _, h := range st.hoisted {
				if !h.flags[j] && !h.rest(f) {
					continue pairs
				}
			}
			for _, fn := range st.atoms {
				if !fn(f) {
					continue pairs
				}
			}
			rec(depth + 1)
		}
	}
	rec(0)
	return out
}

func popcountOne(mask uint64) (n, only int) {
	only = -1
	for i := 0; i < 64; i++ {
		if mask&(1<<uint(i)) != 0 {
			n++
			only = i
		}
	}
	return n, only
}
