// Package repair implements a heuristic CFD repair algorithm — the
// Section 6 component the paper proves NP-complete (Theorem 6.1) and
// defers; we follow the cost-based value-modification framework the
// authors cite (Bohannon et al., SIGMOD 2005) adapted to CFDs.
//
// The CFD-specific twist the paper highlights: unlike plain FDs, some
// violations CANNOT be resolved by editing right-hand-side attributes —
// the repair must modify a left-hand-side attribute to break the pattern
// match. The algorithm therefore works in passes:
//
//  1. Detect all violations (internal/detect's indexed detector).
//  2. Constant violations force cells to pattern constants; variable
//     violations merge the conflicting Y-cells into equivalence classes
//     (union-find), which then receive their class plurality value.
//  3. Forced-value conflicts, and cells that keep oscillating across
//     passes, are resolved by the FD-impossible move: set a
//     left-hand-side cell to a fresh placeholder value, breaking the
//     match (fresh values are unique and match only '_' patterns).
//
// The last pass certifies the result: a pass whose detection finds no
// violation proves I′ ⊨ Σ; a pass that finds violations but can change no
// cell (only an empty-LHS match cannot be broken) proves the opposite; and
// a run that exhausts the pass budget sweeps the detector once more.
// Result.Satisfied reports whether the repair reached I′ ⊨ Σ.
package repair

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/relation"
)

// Change is one applied cell modification.
type Change struct {
	Row  int
	Attr string
	From relation.Value
	To   relation.Value
}

// CostModel weights cell modifications; the default charges 1 per cell.
// Higher weights steer the heuristic away from trusted attributes (the
// cost-based model of the cited SIGMOD 2005 work).
type CostModel struct {
	Weight func(row int, attr string) float64
}

func (m *CostModel) weight(row int, attr string) float64 {
	if m == nil || m.Weight == nil {
		return 1
	}
	return m.Weight(row, attr)
}

// stuckThreshold is the number of times a cell may be rewritten before
// the algorithm switches to LHS-breaking for its violations.
const stuckThreshold = 3

// Options configures the heuristic.
type Options struct {
	// MaxPasses bounds the detect-resolve iterations (default 20).
	MaxPasses int
	// Cost is the repair cost model (nil = unit cost).
	Cost *CostModel
}

func (o Options) withDefaults() Options {
	if o.MaxPasses <= 0 {
		o.MaxPasses = 20
	}
	return o
}

// Result is the outcome of a repair run.
type Result struct {
	// Repaired is the modified instance (the input is not mutated).
	Repaired *relation.Relation
	// Changes is the chronological log of applied modifications.
	Changes []Change
	// Cost is the total weight of cells that differ from the original
	// instance (each cell counted once, at its final value).
	Cost float64
	// Satisfied reports Repaired ⊨ Σ, certified by the indexed detector
	// of the last pass (or of one extra sweep when MaxPasses ran out).
	Satisfied bool
	// Passes is the number of detect-resolve iterations used.
	Passes int
}

// Repair computes a repair of rel with respect to Σ. It returns an error
// if Σ is inconsistent (no repair can exist: no nonempty instance
// satisfies Σ) or malformed.
func Repair(rel *relation.Relation, sigma []*core.CFD, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	for i, c := range sigma {
		if err := c.Validate(rel.Schema); err != nil {
			return nil, fmt.Errorf("repair: CFD %d: %w", i, err)
		}
	}
	ok, _, err := core.Consistent(rel.Schema, sigma)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("repair: Σ is inconsistent; no nonempty instance can satisfy it")
	}

	r := &repairer{
		orig:   rel,
		work:   rel.Clone(),
		sigma:  sigma,
		opts:   opts,
		writes: make(map[int]int),
	}
	res, err := r.run()
	if err != nil {
		return nil, err
	}
	return res, nil
}

type repairer struct {
	orig    *relation.Relation
	work    *relation.Relation
	sigma   []*core.CFD
	opts    Options
	changes []Change
	writes  map[int]int // cell id -> number of rewrites
	freshN  int
}

func (r *repairer) cellID(row, col int) int { return row*r.work.Schema.Len() + col }

func (r *repairer) fresh() relation.Value {
	r.freshN++
	return fmt.Sprintf("\x00unk:%d", r.freshN)
}

func (r *repairer) set(row int, col int, v relation.Value) {
	cur := r.work.Tuples[row][col]
	if cur == v {
		return
	}
	attr := r.work.Schema.Attrs[col].Name
	r.changes = append(r.changes, Change{Row: row, Attr: attr, From: cur, To: v})
	r.work.Tuples[row][col] = v
	r.writes[r.cellID(row, col)]++
}

func (r *repairer) run() (*Result, error) {
	passes, satisfied := 0, false
	for ; passes < r.opts.MaxPasses; passes++ {
		found, applied, err := r.pass()
		if err != nil {
			return nil, err
		}
		if found == 0 {
			satisfied = true
			break
		}
		if applied == 0 {
			break // violations remain and nothing could change them
		}
	}
	if passes == r.opts.MaxPasses {
		// The budget ran out after a pass that changed cells: sweep once
		// more to learn whether that pass finished the job.
		vs, err := r.violations()
		if err != nil {
			return nil, err
		}
		satisfied = len(vs) == 0
	}
	res := &Result{
		Repaired:  r.work,
		Changes:   r.changes,
		Satisfied: satisfied,
		Passes:    passes,
	}
	// Final cost: weight of cells differing from the original.
	cost := 0.0
	for row := range r.work.Tuples {
		for col := range r.work.Tuples[row] {
			if r.work.Tuples[row][col] != r.orig.Tuples[row][col] {
				cost += r.opts.Cost.weight(row, r.work.Schema.Attrs[col].Name)
			}
		}
	}
	res.Cost = cost
	return res, nil
}

// violations runs the indexed detector over every CFD of Σ.
func (r *repairer) violations() ([]violationRef, error) {
	var out []violationRef
	for ci, c := range r.sigma {
		vs, err := detect.FindDetailed(r.work, c)
		if err != nil {
			return nil, err
		}
		for _, v := range vs {
			out = append(out, violationRef{cfd: ci, v: v})
		}
	}
	return out, nil
}

// pass runs one detect-resolve iteration and returns the number of
// violations it found in the instance it started from and the number of
// changes it applied.
func (r *repairer) pass() (found, applied int, err error) {
	vs, err := r.violations()
	if err != nil || len(vs) == 0 {
		return 0, 0, err
	}
	before := len(r.changes)
	plan := r.buildPlan(vs)
	r.applyPlan(plan)
	if len(r.changes) == before {
		// The plan proposed only values the cells already hold (possible
		// when forces conflict); break the LHS of every remaining
		// violation to guarantee progress.
		r.breakAll(vs)
	}
	return len(vs), len(r.changes) - before, nil
}

type violationRef struct {
	cfd int
	v   core.Violation
}
