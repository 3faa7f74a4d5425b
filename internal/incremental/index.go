package incremental

// This file holds the live group entries of each CFD's group store. The
// stores themselves are plain maps on the Monitor and its cfdStates,
// behind the one store lock (see monitor.go); the static tableau side —
// which rows of Tp a tuple's X-projection matches, and the constant Y
// check — is core.TableauIndex, built once per CFD with its constants
// resolved through the monitor's value pool. The tableau-free
// generalization of the group index — per-X-group support and Y-value
// distributions for arbitrary attribute pairs, feeding the streaming CFD
// miner — lives in stats.go, folded from the same apply step.
//
// Everything here speaks value IDs (relation.Interner.ID): tuples are
// stored as []uint32 columns and group keys are the packed
// 4-byte-per-ID encoding of relation.AppendIDKey. Strings only reappear
// at the API boundary (Violations, Get, deltas), materialized through
// the interner.

// idTuple is a stored tuple: one value ID per attribute, positionally
// aligned with the schema.
type idTuple = []uint32

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
