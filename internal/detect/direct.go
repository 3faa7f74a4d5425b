package detect

import (
	"repro/internal/core"
	"repro/internal/relation"
)

// The direct strategy: a pure-Go detector over hash indexes. It serves two
// roles — the oracle the SQL paths are verified against, and the fast path
// for embedding the library without any SQL surface.
//
// Each CFD's tableau is indexed once (core.TableauIndex, rows bucketed by
// constant-position mask) and probed once per tuple, so each row's
// candidate set is exactly the tuples matching its X pattern, in
// O(|I| · #masks + Σ_p |cand(p)|) instead of O(|Tp| · |I|).

func detectDirect(rel *relation.Relation, sigma []*core.CFD) (*Result, error) {
	res := &Result{PerCFD: make([]CFDViolations, len(sigma))}
	for i, c := range sigma {
		v, err := directOne(rel, c)
		if err != nil {
			return nil, err
		}
		res.PerCFD[i] = v
	}
	return res, nil
}

// FindDetailed returns the full violation list of one CFD (tableau row,
// kind, tuples, keys) using the indexed algorithm; it is the detector the
// repair heuristic builds on. Violations come row by row in
// core.TableauIndex.Order, and within a row as the constant violations in
// tuple order followed by the conflicting groups in order of first
// appearance — batch repair takes its proposals in this order.
func FindDetailed(rel *relation.Relation, cfd *core.CFD) ([]core.Violation, error) {
	xIdx, err := rel.Schema.Indexes(cfd.LHS)
	if err != nil {
		return nil, err
	}
	yIdx, err := rel.Schema.Indexes(cfd.RHS)
	if err != nil {
		return nil, err
	}
	// Number the tableau's constants 1..k. A data value no constant has
	// maps to 0, which no bucket key or Y constant holds.
	ids := make(map[relation.Value]uint32)
	ix := core.NewTableauIndex(cfd, func(v relation.Value) uint32 {
		id, ok := ids[v]
		if !ok {
			id = uint32(len(ids) + 1)
			ids[v] = id
		}
		return id
	})
	project := func(dst []uint32, t relation.Tuple, idx []int) []uint32 {
		for i, j := range idx {
			dst[i] = ids[t[j]]
		}
		return dst
	}
	// One pass over the data collects every row's candidates.
	cand := make([][]int, len(cfd.Tableau))
	x := make([]uint32, len(xIdx))
	var rows []int
	for t, tup := range rel.Tuples {
		rows = ix.Match(rows[:0], project(x, tup, xIdx))
		for _, ri := range rows {
			cand[ri] = append(cand[ri], t)
		}
	}
	var out []core.Violation
	y := make([]uint32, len(yIdx))
	for _, ri := range ix.Order() {
		if len(cand[ri]) == 0 {
			continue
		}
		// Constant violations plus grouping for variable violations.
		groups := make(map[string][]int)
		var order []string
		keys := make(map[string][]relation.Value)
		for _, t := range cand[ri] {
			if !ix.MatchY(ri, project(y, rel.Tuples[t], yIdx)) {
				out = append(out, core.Violation{Kind: core.ConstViolation, Row: ri, Tuples: []int{t}})
			}
			xv := rel.Project(t, xIdx)
			k := relation.EncodeKey(xv)
			if _, ok := groups[k]; !ok {
				order = append(order, k)
				keys[k] = xv
			}
			groups[k] = append(groups[k], t)
		}
		for _, k := range order {
			members := groups[k]
			if len(members) < 2 {
				continue
			}
			distinct := make(map[string]bool)
			for _, t := range members {
				distinct[relation.EncodeKey(rel.Project(t, yIdx))] = true
			}
			if len(distinct) > 1 {
				out = append(out, core.Violation{
					Kind: core.VariableViolation, Row: ri,
					Tuples: append([]int(nil), members...),
					Key:    keys[k],
				})
			}
		}
	}
	return out, nil
}

func directOne(rel *relation.Relation, cfd *core.CFD) (CFDViolations, error) {
	constSet := make(map[int]bool)
	keySet := make(map[string][]relation.Value)
	vs, err := FindDetailed(rel, cfd)
	if err != nil {
		return CFDViolations{}, err
	}
	for _, v := range vs {
		switch v.Kind {
		case core.ConstViolation:
			constSet[v.Tuples[0]] = true
		case core.VariableViolation:
			keySet[relation.EncodeKey(v.Key)] = v.Key
		}
	}
	return canonicalize(constSet, keySet), nil
}
