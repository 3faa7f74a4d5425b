package incremental

import (
	"repro/internal/core"
	"repro/internal/relation"
)

// This file holds the persistent index structures behind the Monitor: the
// static tableau-row index (the inverse of detect/direct.go's constant-mask
// bucketing — pattern rows are indexed once and probed per tuple, instead
// of the data being indexed per detection run) and the live group entries
// of each CFD's group store. The stores themselves are plain maps on the
// Monitor and its cfdStates, behind the one store lock (see monitor.go).
// The tableau-free generalization of the group index — per-X-group
// support and Y-value distributions for arbitrary attribute pairs,
// feeding the streaming CFD miner — lives in stats.go, folded from the
// same apply step.
//
// Everything here speaks value IDs (relation.Interner.ID): tuples are
// stored as []uint32 columns, tableau constants are resolved to IDs once
// at build time, and group keys are the packed 4-byte-per-ID encoding of
// relation.AppendIDKey. Strings only reappear at the API boundary
// (Violations, Get, deltas), materialized through the interner.

// idTuple is a stored tuple: one value ID per attribute, positionally
// aligned with the schema.
type idTuple = []uint32

// rowBucket groups the tableau rows of one CFD that share a constant-
// position mask, indexed by the packed IDs of those constant cells.
// Probing with a tuple's X-projection returns exactly the rows whose X
// pattern the tuple matches, in O(1) per mask instead of O(|Tp|).
type rowBucket struct {
	// constPos are the LHS positions holding constants under this mask.
	constPos []int
	// rows maps the packed constant IDs at constPos to tableau row
	// indexes. The all-wildcard mask uses the empty key.
	rows map[string][]int
}

// rowIndex is the full static index of one CFD's pattern tableau.
type rowIndex struct {
	buckets []*rowBucket
}

// buildRowIndex resolves the tableau's X constants through the value
// pool — interning a constant the data never contains costs one pool
// entry and makes every probe an integer comparison.
func buildRowIndex(cfd *core.CFD, vals *relation.Interner) *rowIndex {
	ix := &rowIndex{}
	byMask := make(map[string]*rowBucket)
	for ri, row := range cfd.Tableau {
		maskKey := make([]byte, len(row.X))
		var constPos []int
		for i, p := range row.X {
			if p.Kind == core.Const {
				constPos = append(constPos, i)
				maskKey[i] = '1'
			} else {
				maskKey[i] = '0'
			}
		}
		b, ok := byMask[string(maskKey)]
		if !ok {
			b = &rowBucket{constPos: constPos, rows: make(map[string][]int)}
			byMask[string(maskKey)] = b
			ix.buckets = append(ix.buckets, b)
		}
		ids := make([]uint32, len(b.constPos))
		for i, p := range b.constPos {
			ids[i] = vals.ID(row.X[p].Val)
		}
		k := string(relation.AppendIDKey(nil, ids))
		b.rows[k] = append(b.rows[k], ri)
	}
	return ix
}

// match returns the tableau rows whose X pattern matches the X-projection x.
func (ix *rowIndex) match(x []uint32) []int {
	return ix.matchInto(nil, x)
}

// matchInto appends the matching rows to dst. The probe key is packed
// into a stack buffer and looked up as string(buf), so a match on the
// mutation hot path allocates nothing.
func (ix *rowIndex) matchInto(dst []int, x []uint32) []int {
	var stack [64]byte
	for _, b := range ix.buckets {
		key := stack[:0]
		for _, p := range b.constPos {
			key = relation.AppendIDKey(key, x[p:p+1])
		}
		dst = append(dst, b.rows[string(key)]...)
	}
	return dst
}

// yCell is one pre-resolved Y-pattern cell: a tableau constant's value
// ID, or a match-anything cell ('_' / '@'). Resolving the tableau once
// at build time turns constViolates into a branch-light integer loop.
type yCell struct {
	isConst bool
	id      uint32
}

// buildYPatterns resolves every tableau row's Y cells to ID patterns.
func buildYPatterns(cfd *core.CFD, vals *relation.Interner) [][]yCell {
	out := make([][]yCell, len(cfd.Tableau))
	for ri, row := range cfd.Tableau {
		cells := make([]yCell, len(row.Y))
		for i, p := range row.Y {
			if p.Kind == core.Const {
				cells[i] = yCell{isConst: true, id: vals.ID(p.Val)}
			}
		}
		out[ri] = cells
	}
	return out
}

// group is the live state of one distinct X-projection under one CFD. A
// group is in variable violation when at least one tableau row selects it
// and its members disagree on Y. The membership multiset itself lives in
// the CFD's yCounts map (one flat map per CFD instead of one or two small
// maps per group — the dominant allocation cost of both the hot write
// path and snapshot recovery at 100K-tuple scale); the group only carries
// the counters those entries maintain.
type group struct {
	// xids is the shared X-projection as value IDs (owned by the group;
	// treated as immutable once stored). Materialize through the
	// monitor's interner at API boundaries.
	xids []uint32
	// selected reports whether some tableau row's X pattern matches x.
	// The tableau is static, so this is computed once at group creation.
	selected bool
	// size is the number of member tuples.
	size int
	// distinct is the number of distinct Y-projections over the members
	// (the number of live yCounts entries with this group's xk).
	distinct int
}

func (g *group) violating() bool { return g.selected && g.distinct > 1 }

// ykKey identifies one distinct Y-projection of one group.
// The group is referenced by identity: pointer hashing is cheaper than
// re-hashing the packed X-projection on every membership change, and the
// snapshot codec can reference groups by arena index instead of repeating
// their keys. yk is the packed-ID Y-projection, canonicalized through the
// monitor's key pool so the struct-literal probe never allocates.
type ykKey struct {
	g  *group
	yk string
}
