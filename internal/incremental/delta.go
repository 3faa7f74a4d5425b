package incremental

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/relation"
)

// Change is one element of a violation delta: a violation that appeared in
// (or disappeared from) the live violation set as a consequence of a single
// Insert/Delete/Update operation. It identifies a violation the same way
// detect.CFDViolations does — constant violations by the offending tuple,
// variable violations by the shared X-projection of the conflicting group —
// except that tuples are named by their stable Monitor key rather than a
// positional row id.
type Change struct {
	// CFD is the index of the violated CFD within the monitored Σ.
	CFD int
	// Kind distinguishes constant from variable violations.
	Kind core.ViolationKind
	// Tuple is the offending tuple's key (ConstViolation only).
	Tuple int64
	// Key is the shared X-projection of the conflicting group
	// (VariableViolation only). The monitor's violation view holds the
	// same slice, so callers must treat it as read-only.
	Key []relation.Value
}

// String renders the change for logs and the CLI surfaces.
func (c Change) String() string {
	if c.Kind == core.ConstViolation {
		return fmt.Sprintf("cfd %d const tuple %d", c.CFD, c.Tuple)
	}
	return fmt.Sprintf("cfd %d variable key (%s)", c.CFD, strings.Join(c.Key, ", "))
}

// Delta is the net effect of one operation on the live violation set:
// violations that appeared (Added) and violations that were retired
// (Removed). A violation that merely changes its witnessing tableau row —
// present both before and after the operation — does not appear in either
// list.
type Delta struct {
	Added   []Change
	Removed []Change
}

// Empty reports whether the operation changed the violation set at all.
func (d *Delta) Empty() bool { return len(d.Added) == 0 && len(d.Removed) == 0 }

// changeKey is the identity of a Change for cancellation purposes.
type changeKey struct {
	cfd   int
	kind  core.ViolationKind
	tuple int64
	key   string
}

func ckOf(c Change) changeKey {
	k := changeKey{cfd: c.CFD, kind: c.Kind}
	if c.Kind == core.ConstViolation {
		k.tuple = c.Tuple
	} else {
		k.key = relation.EncodeKey(c.Key)
	}
	return k
}

// normalize cancels changes listed as both added and removed (an Update
// that removes the old tuple's violation and re-adds the same violation
// for the new value is a net no-op) and returns the receiver.
func (d *Delta) normalize() *Delta {
	if len(d.Added) == 0 || len(d.Removed) == 0 {
		return d
	}
	remain := make(map[changeKey]int, len(d.Removed))
	for _, c := range d.Removed {
		remain[ckOf(c)]++
	}
	added := d.Added[:0]
	for _, c := range d.Added {
		k := ckOf(c)
		if remain[k] > 0 {
			remain[k]--
			continue
		}
		added = append(added, c)
	}
	removed := d.Removed[:0]
	for _, c := range d.Removed {
		k := ckOf(c)
		if remain[k] > 0 {
			remain[k]--
			removed = append(removed, c)
		}
	}
	d.Added, d.Removed = added, removed
	return d
}

// CFDViolations is one CFD's live violation set, in the same canonical
// shape detect.CFDViolations uses: sorted constant-violating tuple keys
// plus the distinct X-projections of conflicting groups, sorted by encoded
// key.
type CFDViolations struct {
	ConstTuples  []int64
	VariableKeys [][]relation.Value
}

// Total returns the number of live violations of this CFD.
func (v CFDViolations) Total() int { return len(v.ConstTuples) + len(v.VariableKeys) }

// State is a point-in-time snapshot of the full violation set, one entry
// per monitored CFD, positionally aligned with Σ.
type State struct {
	PerCFD []CFDViolations
}

// Clean reports whether the snapshot contains no violations.
func (s *State) Clean() bool {
	for _, v := range s.PerCFD {
		if v.Total() > 0 {
			return false
		}
	}
	return true
}

// Total returns the number of violations across all CFDs.
func (s *State) Total() int {
	n := 0
	for _, v := range s.PerCFD {
		n += v.Total()
	}
	return n
}

// Equal compares two snapshots structurally.
func (s *State) Equal(o *State) bool {
	if len(s.PerCFD) != len(o.PerCFD) {
		return false
	}
	for i := range s.PerCFD {
		a, b := s.PerCFD[i], o.PerCFD[i]
		if len(a.ConstTuples) != len(b.ConstTuples) || len(a.VariableKeys) != len(b.VariableKeys) {
			return false
		}
		for j := range a.ConstTuples {
			if a.ConstTuples[j] != b.ConstTuples[j] {
				return false
			}
		}
		for j := range a.VariableKeys {
			if relation.CompareKeys(a.VariableKeys[j], b.VariableKeys[j]) != 0 {
				return false
			}
		}
	}
	return true
}
