package core

import "repro/internal/relation"

// TableauIndex answers t[X] ≍ tp[X] — "which rows of the pattern tableau
// does this tuple match" — for one CFD's whole tableau at once. It is the
// one implementation of the operator on every indexed path: the batch
// detector (detect.FindDetailed, and through it batch repair), the
// incremental Monitor, and the streaming repair Suggester via the
// Monitor. The naive FindViolations stays the reference it is tested
// against.
//
// Rows are bucketed by their constant-position mask, so one probe per
// bucket replaces a scan of Tp: a tuple matches exactly the rows of a
// bucket whose constants equal its values at the bucket's positions.
// Constants are resolved once, at build time, to uint32 IDs through a
// caller-supplied numbering; probes then compare and hash integers
// only. The index is immutable once built, so concurrent probes need no
// lock.
type TableauIndex struct {
	buckets []tableauBucket
	// y lists each row's constant Y cells; '_' and '@' match anything
	// and are left out.
	y [][]yConst
	// order is every row, bucket by bucket in first-appearance order of
	// the masks and in tableau order within a bucket.
	order []int
}

// tableauBucket holds the rows sharing one constant-position mask.
type tableauBucket struct {
	// constPos are the LHS positions holding constants under this mask.
	constPos []int
	// rows maps the packed IDs of those constants (relation.AppendIDKey)
	// to the matching rows, in tableau order. The all-wildcard mask uses
	// the empty key.
	rows map[string][]int
}

// yConst is one constant Y cell: its position in the RHS and the ID of
// the constant.
type yConst struct {
	pos int
	id  uint32
}

// NewTableauIndex builds the index of cfd's tableau, resolving every X
// and Y constant through id. Probes must number data values the same
// way: a value equal to a constant gets that constant's ID, and any
// other value an ID no constant holds.
func NewTableauIndex(cfd *CFD, id func(relation.Value) uint32) *TableauIndex {
	ix := &TableauIndex{y: make([][]yConst, len(cfd.Tableau))}
	byMask := make(map[string]int)
	var members [][]int
	for ri, row := range cfd.Tableau {
		mask := make([]byte, len(row.X))
		var constPos []int
		for i, p := range row.X {
			mask[i] = '0'
			if p.Kind == Const {
				constPos = append(constPos, i)
				mask[i] = '1'
			}
		}
		bi, ok := byMask[string(mask)]
		if !ok {
			bi = len(ix.buckets)
			byMask[string(mask)] = bi
			ix.buckets = append(ix.buckets, tableauBucket{constPos: constPos, rows: make(map[string][]int)})
			members = append(members, nil)
		}
		b := &ix.buckets[bi]
		ids := make([]uint32, len(constPos))
		for i, p := range constPos {
			ids[i] = id(row.X[p].Val)
		}
		key := string(relation.AppendIDKey(nil, ids))
		b.rows[key] = append(b.rows[key], ri)
		members[bi] = append(members[bi], ri)
		for i, p := range row.Y {
			if p.Kind == Const {
				ix.y[ri] = append(ix.y[ri], yConst{pos: i, id: id(p.Val)})
			}
		}
	}
	for _, rows := range members {
		ix.order = append(ix.order, rows...)
	}
	return ix
}

// Match appends to dst the rows whose X pattern the ID vector x
// (positionally aligned with the CFD's LHS) matches, bucket by bucket in
// Order's bucket order, and returns the extended slice. The probe key is
// packed into a stack buffer and looked up as string(buf), so a probe
// allocates nothing beyond growing dst.
func (ix *TableauIndex) Match(dst []int, x []uint32) []int {
	var stack [64]byte
	for i := range ix.buckets {
		b := &ix.buckets[i]
		key := stack[:0]
		for _, p := range b.constPos {
			key = relation.AppendIDKey(key, x[p:p+1])
		}
		dst = append(dst, b.rows[string(key)]...)
	}
	return dst
}

// MatchY reports whether the ID vector y (positionally aligned with the
// CFD's RHS) matches row ri's Y pattern, t[Y] ≍ tp[Y]. A tuple whose X
// matches row ri and whose Y does not is a constant violation of it.
func (ix *TableauIndex) MatchY(ri int, y []uint32) bool {
	for _, c := range ix.y[ri] {
		if y[c.pos] != c.id {
			return false
		}
	}
	return true
}

// ConstY reports whether row ri's Y pattern holds a constant — whether
// MatchY can fail for it at all.
func (ix *TableauIndex) ConstY(ri int) bool { return len(ix.y[ri]) > 0 }

// Order returns every tableau row in probe order: the constant-position
// masks in order of first appearance, then tableau order within a mask.
// The slice is shared; treat it as read-only.
func (ix *TableauIndex) Order() []int { return ix.order }
