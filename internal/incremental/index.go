package incremental

// This file holds the live group entries of each CFD's group store. The
// stores themselves are plain maps on the Monitor and its cfdStates,
// behind the one store lock (see monitor.go); the static tableau side —
// which rows of Tp a tuple's X-projection matches, and the constant Y
// check — is core.TableauIndex, built once per CFD with its constants
// resolved through the monitor's value pool. The group statistics that
// feed the repair Suggester (stats.go) read these groups too: the apply
// marks each attached subscription's watch (cfdState.watch) before it
// changes a group, and the distribution type lives there.
//
// Everything here speaks value IDs (relation.Interner.ID): tuples are
// stored as []uint32 columns, group keys are the packed 4-byte-per-ID
// encoding of relation.AppendIDKey, and a group's distributions count
// RHS value IDs. Strings only reappear at the API boundary (Violations,
// Get, deltas), materialized through the interner.

// idTuple is a stored tuple: one value ID per attribute, positionally
// aligned with the schema.
type idTuple = []uint32

// group is the live state of one distinct X-projection under one CFD:
// one count distribution per RHS attribute (dist, which a GroupStats
// reads). Two Y-projections differ iff they differ on some
// A ∈ Y, so the paper's QV — GROUP BY X HAVING COUNT(DISTINCT Y) > 1 —
// holds for a group exactly when some A has more than one distinct
// value; the group is in variable violation when, in addition, at least
// one tableau row selects it.
type group struct {
	// key is the packed-ID X-projection, the group's map key (shared
	// with the map, immutable). relation.DecodeIDKey recovers the IDs.
	key string
	// selected reports whether some tableau row's X pattern matches x.
	// The tableau is static, so this is computed once at group creation.
	selected bool
	// size is the number of member tuples.
	size int
	// ys[i] counts the members' values of the CFD's i-th RHS attribute.
	ys []dist
}

func (g *group) violating() bool {
	if !g.selected {
		return false
	}
	for i := range g.ys {
		if g.ys[i].distinct() > 1 {
			return true
		}
	}
	return false
}
