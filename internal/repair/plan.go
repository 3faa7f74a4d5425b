package repair

import (
	"sort"

	"repro/internal/core"
	"repro/internal/relation"
)

// A repair plan for one pass. Every violation contributes per-cell value
// PROPOSALS:
//
//   - a constant violation proposes the pattern constant for the
//     mismatching cell (a forced proposal — Σ is ground truth);
//   - a variable violation proposes the group's target value (the pattern
//     constant if the row binds one, else the group majority) for the
//     minority cells only.
//
// Cells with agreeing proposals are simply written. A cell with
// CONFLICTING proposals is a bridge between contradictory groups — the
// CFD-specific situation where no right-hand-side value works (the
// paper's Section 6 observation). The losing proposals' matches are
// broken by modifying a left-hand-side cell to a fresh placeholder, which
// removes the tuple from the offending group for good. A per-cell write
// counter backstops residual oscillation the same way.

type proposalKind uint8

const (
	proposeMajority proposalKind = iota
	proposeForced                // from a pattern constant: authoritative
)

type proposal struct {
	val    relation.Value
	kind   proposalKind
	weight int // evidence: size of the proposing group
	brk    breakReq
}

type breakReq struct {
	row   core.PatternRow
	tuple int
	lhs   []string
}

type plan struct {
	proposals map[int][]proposal // cell id -> proposals
	cells     []int              // deterministic iteration order
	breaks    []breakReq         // pre-resolved breaking requests (stuck cells)
	seen      map[int]bool
}

func (p *plan) propose(id int, pr proposal) {
	if !p.seen[id] {
		p.seen[id] = true
		p.cells = append(p.cells, id)
	}
	p.proposals[id] = append(p.proposals[id], pr)
}

func (r *repairer) buildPlan(vs []violationRef) *plan {
	p := &plan{proposals: make(map[int][]proposal), seen: make(map[int]bool)}
	schema := r.work.Schema
	for _, ref := range vs {
		c := r.sigma[ref.cfd]
		row := c.Tableau[ref.v.Row]
		switch ref.v.Kind {
		case core.ConstViolation:
			t := ref.v.Tuples[0]
			brk := breakReq{row: row, tuple: t, lhs: c.LHS}
			for yi, a := range c.RHS {
				if row.Y[yi].Kind != core.Const {
					continue
				}
				col := schema.MustIndex(a)
				if r.work.Tuples[t][col] == row.Y[yi].Val {
					continue
				}
				id := r.cellID(t, col)
				if r.writes[id] >= stuckThreshold {
					p.breaks = append(p.breaks, brk)
					continue
				}
				p.propose(id, proposal{val: row.Y[yi].Val, kind: proposeForced, weight: 1, brk: brk})
			}
		case core.VariableViolation:
			for yi, a := range c.RHS {
				col := schema.MustIndex(a)
				// Group target: the pattern constant when bound, else the
				// majority value (ties to the smallest, for determinism).
				var target relation.Value
				if row.Y[yi].Kind == core.Const {
					target = row.Y[yi].Val
				} else {
					counts := make(map[relation.Value]int)
					for _, t := range ref.v.Tuples {
						counts[r.work.Tuples[t][col]]++
					}
					best := -1
					for v, n := range counts {
						if n > best || (n == best && v < target) {
							best, target = n, v
						}
					}
				}
				for _, t := range ref.v.Tuples {
					if r.work.Tuples[t][col] == target {
						continue
					}
					id := r.cellID(t, col)
					brk := breakReq{row: row, tuple: t, lhs: c.LHS}
					if r.writes[id] >= stuckThreshold {
						p.breaks = append(p.breaks, brk)
						continue
					}
					p.propose(id, proposal{val: target, weight: len(ref.v.Tuples), brk: brk})
				}
			}
		}
	}
	return p
}

func (r *repairer) applyPlan(p *plan) {
	width := r.work.Schema.Len()
	for _, id := range p.cells {
		props := p.proposals[id]
		// Rank: forced proposals beat majority ones; then larger groups;
		// then smaller value for determinism.
		sort.SliceStable(props, func(i, j int) bool {
			if props[i].kind != props[j].kind {
				return props[i].kind > props[j].kind
			}
			if props[i].weight != props[j].weight {
				return props[i].weight > props[j].weight
			}
			return props[i].val < props[j].val
		})
		winner := props[0]
		r.set(id/width, id%width, winner.val)
		// Conflicting losers are bridges: break their group match so the
		// conflict cannot recur.
		for _, loser := range props[1:] {
			if loser.val != winner.val {
				r.breakMatch(loser.brk)
			}
		}
	}
	for _, b := range p.breaks {
		r.breakMatch(b)
	}
}

// breakMatch modifies one LHS cell of the tuple so it no longer matches
// the pattern row: prefer the cheapest constant pattern cell (any fresh
// value breaks it); fall back to a wildcard cell, where the fresh value
// splits the tuple away from its X-group. Empty-LHS rows cannot be broken
// (consistency of Σ precludes conflicting empty-LHS constants).
func (r *repairer) breakMatch(b breakReq) {
	schema := r.work.Schema
	bestCol, bestCost := -1, 0.0
	pick := func(kind core.PatternKind) {
		for i, a := range b.lhs {
			if b.row.X[i].Kind != kind {
				continue
			}
			col := schema.MustIndex(a)
			w := r.opts.Cost.weight(b.tuple, a)
			if bestCol < 0 || w < bestCost {
				bestCol, bestCost = col, w
			}
		}
	}
	pick(core.Const)
	if bestCol < 0 {
		pick(core.Wildcard)
	}
	if bestCol < 0 {
		return
	}
	r.set(b.tuple, bestCol, r.fresh())
}

// breakAll is the last-resort fallback when a pass applies no changes but
// violations remain: break the match of every violation.
func (r *repairer) breakAll(vs []violationRef) {
	for _, ref := range vs {
		c := r.sigma[ref.cfd]
		row := c.Tableau[ref.v.Row]
		r.breakMatch(breakReq{row: row, tuple: ref.v.Tuples[0], lhs: c.LHS})
	}
}
