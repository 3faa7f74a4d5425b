package detect

import (
	"encoding/binary"
	"strconv"

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
// O(|I| · #masks + Σ_p |cand(p)|) instead of O(|Tp| · |I|). One map per
// CFD, keyed by (row, t[X]), groups every row's candidates at once, and a
// group is a variable violation when some member disagrees with its first
// member on an attribute of Y. Detection allocates per group and per
// violation, never per tuple.

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
//
// One pass over the data groups each row's candidates by t[X] in a single
// map keyed by (row, t[X]). A group keeps only its first member and its
// size, and is a variable violation iff some later member differs from
// the first on an attribute of Y — the Monitor's rule, with no
// Y-projection encoded. Member lists are built only for violating groups,
// so the cost is one allocation per group and per violation.
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

	type group struct {
		row, first, size int
		violates         bool
		members          []int // filled only once the group is known to violate
	}
	type hit struct{ t, g int } // tuple t is a member of groups[g]
	var (
		groups []group
		byKey  = make(map[string]int) // row, then t[X] → index into groups
		// hits lists every (tuple, group) membership in tuple order, so
		// violating groups collect their members without a second probe.
		hits      []hit
		consts    = make([][]core.Violation, len(cfd.Tableau))
		violating = make([][]int, len(cfd.Tableau)) // per row, in first-appearance order
		x         = make([]uint32, len(xIdx))
		y         = make([]uint32, len(yIdx))
		rows      []int
		key       []byte
	)
	for t, tup := range rel.Tuples {
		rows = ix.Match(rows[:0], project(x, tup, xIdx))
		if len(rows) == 0 {
			continue
		}
		project(y, tup, yIdx)
		for _, ri := range rows {
			if !ix.MatchY(ri, y) {
				consts[ri] = append(consts[ri], core.Violation{Kind: core.ConstViolation, Row: ri, Tuples: []int{t}})
			}
			// The key is the row as a uvarint, then t[X] in
			// relation.AppendKey's encoding, built without a projection;
			// a string(key) probe does not allocate.
			key = binary.AppendUvarint(key[:0], uint64(ri))
			for _, j := range xIdx {
				key = strconv.AppendInt(key, int64(len(tup[j])), 10)
				key = append(key, ':')
				key = append(key, tup[j]...)
			}
			g, ok := byKey[string(key)]
			if !ok {
				g = len(groups)
				byKey[string(key)] = g
				groups = append(groups, group{row: ri, first: t})
			} else if gr := &groups[g]; !gr.violates {
				gr.violates = !agreeOn(tup, rel.Tuples[gr.first], yIdx)
			}
			groups[g].size++
			hits = append(hits, hit{t, g})
		}
	}
	for g := range groups {
		if gr := &groups[g]; gr.violates {
			gr.members = make([]int, 0, gr.size)
			violating[gr.row] = append(violating[gr.row], g)
		}
	}
	for _, h := range hits {
		if gr := &groups[h.g]; gr.violates {
			gr.members = append(gr.members, h.t)
		}
	}
	var out []core.Violation
	for _, ri := range ix.Order() {
		out = append(out, consts[ri]...)
		for _, g := range violating[ri] {
			out = append(out, core.Violation{
				Kind: core.VariableViolation, Row: ri,
				Tuples: groups[g].members,
				Key:    rel.Project(groups[g].first, xIdx),
			})
		}
	}
	return out, nil
}

// agreeOn reports whether a and b hold the same value on every attribute
// in idx.
func agreeOn(a, b relation.Tuple, idx []int) bool {
	for _, j := range idx {
		if a[j] != b[j] {
			return false
		}
	}
	return true
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
