// Package discovery implements automated CFD discovery from data — the
// future-work item of the paper's Section 7 ("we are developing automated
// methods for discovering CFDs"), in the style the follow-up literature
// later standardized (constant-pattern mining plus FD-style candidate
// search).
//
// For every candidate embedded FD X → A with |X| ≤ MaxLHS the miner:
//
//  1. emits the all-wildcard CFD when the FD holds on the whole instance
//     (with classic minimality pruning: X is not emitted when some proper
//     subset already determines A);
//  2. otherwise mines constant patterns: X-groups of at least MinSupport
//     tuples whose A-values agree with confidence ≥ MinConfidence become
//     pattern tuples (x̄ → a), merged into one CFD per embedded FD.
//
// Discovered CFDs with MinConfidence = 1 are guaranteed to hold on the
// input instance (property-tested). The search is exponential in MaxLHS
// only, matching the fixed-schema regime of the paper's analyses.
//
// Discover is one on-demand computation over an instance: a level-wise
// search over stripped partitions in the TANE lineage. The kernel runs
// on relation.Columns, every column as dense value IDs with its own
// value table: Discover interns a relation into that shape, and cfdserve's
// GET /v1/discover hands it the columns a monitor copies out of its own
// value IDs (incremental.Monitor.Columns), so no tuple is materialized.
// IDs carry no order; the two places order matters compare values — a
// dominant-value tie goes to the lexicographically smallest value, and
// pattern rows keep relation.CompareKeys order. Level l+1 refines each
// π_X of level l by one more column through a probe table indexed by
// value ID (π_{X∪B} = π_X · π_B); a level is freed once the next is
// built, and the last before the answer is emitted. Singleton groups
// are stripped when MinSupport ≥ 2 (they can neither break an FD nor
// yield a pattern). Each candidate X → A reads its per-group A-value
// counts off π_X, and a candidate a smaller LHS already determines is
// never scored.
package discovery

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/relation"
)

// Config tunes the miner.
type Config struct {
	// MaxLHS bounds the LHS size of candidate FDs (default 1).
	MaxLHS int
	// MinSupport is the minimum number of tuples an X-group needs before
	// it may yield a constant pattern (default 2, so single-tuple groups
	// never generalize).
	MinSupport int
	// MinConfidence is the fraction of a group's tuples that must agree
	// on the RHS value (default 1: exact CFDs only).
	MinConfidence float64
	// MaxPatterns caps the tableau size per embedded FD, keeping the most
	// supported patterns (0 = unlimited).
	MaxPatterns int
}

// Validate rejects tunables no default can repair: a confidence above 1
// can never be met by any group, NaN is no confidence at all (and would
// make two equal configs compare unequal), and a negative pattern cap
// is meaningless (0 already means unlimited). Discover validates on
// entry.
func (c Config) Validate() error {
	if !(c.MinConfidence <= 1) {
		return fmt.Errorf("discovery: MinConfidence %g must be a number at most 1", c.MinConfidence)
	}
	if c.MaxPatterns < 0 {
		return fmt.Errorf("discovery: negative MaxPatterns %d (0 means unlimited)", c.MaxPatterns)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.MaxLHS <= 0 {
		c.MaxLHS = 1
	}
	if c.MinSupport <= 0 {
		c.MinSupport = 2
	}
	if c.MinConfidence <= 0 {
		c.MinConfidence = 1
	}
	return c
}

// Discovered is one mined CFD with its mining metadata.
type Discovered struct {
	CFD *core.CFD
	// IsFD reports that the CFD is an all-wildcard (standard FD) find.
	IsFD bool
	// Support holds, per tableau row, the number of matching tuples.
	Support []int
}

// Discover mines CFDs from the instance. The output is RHS-major: for
// each attribute A in schema order, its embedded FDs X → A with smaller
// LHSs first and, within a size, in schema-order combination order.
// Pattern rows are ordered by support (descending), ties by X-projection
// in relation.CompareKeys order, and capped at MaxPatterns.
func Discover(rel *relation.Relation, cfg Config) ([]Discovered, error) {
	return DiscoverColumns(rel.Columns(), cfg)
}

// DiscoverColumns is Discover over an instance already in column form.
// Its answer does not depend on the tuple order or on how the IDs are
// numbered. The kernel reads c and never changes it.
func DiscoverColumns(c *relation.Columns, cfg Config) ([]Discovered, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if c.Len() == 0 {
		return nil, fmt.Errorf("discovery: empty instance")
	}
	k := newKernel(c, cfg.withDefaults())
	k.run()
	return k.emit(), nil
}

// partition is π_X, its groups' tuple indexes back to back in rows:
// group g ends at ends[g].
type partition struct {
	rows, ends []int32
}

// subset is one LHS of the lattice, an ascending list of attribute
// indexes. subs indexes the subsets with one attribute dropped (none at
// size 1), and next[b] the subset grown by attribute b once the next
// level is built. p is its partition while its level is live, nil when
// every candidate over it is pruned.
type subset struct {
	attrs      []int
	subs, next []int32
	p          *partition
}

// pat is the pattern row one X-group yields: a representative tuple (for
// its X-projection), the dominant A-value's ID and the group's support.
type pat struct {
	rep, top, sup int32
}

// candidate is one embedded FD X → A's scores.
type candidate struct {
	// det reports that X determines A: the candidate is pruned (some
	// subset determines A, so X does too) or no X-group is impure.
	det, pruned bool
	// impure counts groups whose members disagree on A; evidence counts
	// the tuples in groups of size ≥ 2 — the tuples that actually test
	// the FD, which is emitted only once evidence reaches MinSupport.
	impure, evidence int
	// pats holds the yielded pattern rows, kept only when impure > 0.
	pats []pat
}

// kernel is one Discover run's state.
type kernel struct {
	cfg   Config
	attrs []string
	cols  [][]int32          // cols[a][t]: tuple t's value ID in column a
	vals  [][]relation.Value // vals[a][id]: the value an ID stands for
	// minSize is the smallest group a partition keeps: 2 strips
	// singletons, 1 (MinSupport = 1) keeps them as pattern rows.
	minSize int
	subsets []subset
	cands   []candidate // cands[s*len(attrs)+a] scores subsets[s] → a
	// The probe table, indexed by value ID; seen lists the IDs one group
	// touched, so a reset costs the group. pats is score's scratch.
	cnt, off []int32
	seen     []int32
	pats     []pat
}

func newKernel(c *relation.Columns, cfg Config) *kernel {
	k := &kernel{cfg: cfg, attrs: c.Schema.Names(), cols: c.Cols, vals: c.Vals, minSize: min(cfg.MinSupport, 2)}
	n, width := c.Len(), len(k.attrs)
	maxVals := 0
	for _, vs := range k.vals {
		maxVals = max(maxVals, len(vs))
	}
	k.cnt, k.off = make([]int32, maxVals), make([]int32, maxVals)
	// Level 1: π_A is the whole relation, one group, refined by column A.
	all := &partition{rows: make([]int32, n), ends: []int32{int32(n)}}
	for t := range all.rows {
		all.rows[t] = int32(t)
	}
	for a := range width {
		k.subsets = append(k.subsets, subset{attrs: []int{a}, p: k.refine(all, k.cols[a])})
	}
	k.cands = make([]candidate, width*width)
	return k
}

// run scores the lattice level by level.
func (k *kernel) run() {
	level := make([]int32, len(k.attrs))
	for a := range level {
		level[a] = int32(a)
	}
	for size := 1; len(level) > 0; size++ {
		for _, s := range level {
			k.scoreSubset(s)
		}
		if size == k.cfg.MaxLHS {
			k.free(level)
			return
		}
		level = k.extend(level)
	}
}

// scoreSubset scores every candidate over subsets[s]. A pruned candidate
// is not scored: it determines A because a subset of its LHS does.
func (k *kernel) scoreSubset(s int32) {
	sub := &k.subsets[s]
	for a := range k.attrs {
		if c := &k.cands[int(s)*len(k.attrs)+a]; !c.pruned && !slices.Contains(sub.attrs, a) {
			k.score(sub.p, a, c)
			c.det = c.impure == 0
		}
	}
}

// extend builds the next level from level: each subset X grows by every
// attribute B after its last, π_{X∪B} refining π_X by column B. A new
// subset whose candidates are all pruned gets no partition; its own
// extensions are then all pruned too, since it is one of their subsets.
// The old level's partitions are freed.
func (k *kernel) extend(level []int32) []int32 {
	width := len(k.attrs)
	var next []int32
	for _, s := range level {
		x := k.subsets[s].attrs
		k.subsets[s].next = make([]int32, width)
		for b := x[len(x)-1] + 1; b < width; b++ {
			ns := int32(len(k.subsets))
			k.subsets[s].next[b] = ns
			y := append(slices.Clip(x), b)
			// Drop B: X itself. Drop x[j]: X's subset without x[j],
			// grown by B one level earlier (at size 1, the singleton {B}).
			subs := []int32{s}
			if len(x) == 1 {
				subs = append(subs, int32(b))
			}
			for _, d := range k.subsets[s].subs {
				subs = append(subs, k.subsets[d].next[b])
			}
			k.subsets = append(k.subsets, subset{attrs: y, subs: subs})
			k.cands = append(k.cands, make([]candidate, width)...)
			live := false
			for a := range width {
				c := &k.cands[int(ns)*width+a]
				for _, d := range subs {
					c.pruned = c.pruned || k.cands[int(d)*width+a].det
				}
				c.det = c.pruned
				live = live || !c.pruned && !slices.Contains(y, a)
			}
			if live {
				k.subsets[ns].p = k.refine(k.subsets[s].p, k.cols[b])
			}
			next = append(next, ns)
		}
	}
	k.free(level)
	return next
}

// free drops the partitions of level's subsets.
func (k *kernel) free(level []int32) {
	for _, s := range level {
		k.subsets[s].p = nil
	}
}

// refine returns π_X · π_B: each group of p split by column B's value
// IDs, the parts of at least minSize tuples kept in tuple order.
func (k *kernel) refine(p *partition, col []int32) *partition {
	q := &partition{rows: make([]int32, 0, len(p.rows))}
	start := int32(0)
	for _, end := range p.ends {
		g := p.rows[start:end]
		start = end
		seen := k.count(g, col)
		at := int32(len(q.rows))
		for _, v := range seen {
			if n := k.cnt[v]; int(n) >= k.minSize {
				k.off[v] = at
				at += n
				q.ends = append(q.ends, at)
			}
		}
		q.rows = q.rows[:at]
		for _, t := range g {
			if v := col[t]; int(k.cnt[v]) >= k.minSize {
				q.rows[k.off[v]] = t
				k.off[v]++
			}
		}
		for _, v := range seen {
			k.cnt[v] = 0
		}
	}
	return q
}

// count tallies the group's value IDs in cnt and returns them as seen.
func (k *kernel) count(g, col []int32) []int32 {
	k.seen = k.seen[:0]
	for _, t := range g {
		v := col[t]
		if k.cnt[v] == 0 {
			k.seen = append(k.seen, v)
		}
		k.cnt[v]++
	}
	return k.seen
}

// score folds every group of π_X into candidate X → A, a being A's
// column: its distinct A-values, its dominant one (ties toward the
// smallest value; IDs carry no order) and whether it yields a pattern.
func (k *kernel) score(p *partition, a int, c *candidate) {
	col, vals := k.cols[a], k.vals[a]
	pats := k.pats[:0]
	start := int32(0)
	for _, end := range p.ends {
		g := p.rows[start:end]
		start = end
		seen := k.count(g, col)
		top, topN, tie := seen[0], int32(0), false
		for _, v := range seen {
			if n := k.cnt[v]; n > topN {
				top, topN, tie = v, n, false
			} else if n == topN {
				tie = true
			}
		}
		support := len(g)
		if len(seen) > 1 {
			c.impure++
		}
		if support >= 2 {
			c.evidence += support
		}
		if k.yields(support, int(topN)) {
			if tie { // only a yielded row's tie matters: settle it by value
				for _, v := range seen {
					if k.cnt[v] == topN && vals[v] < vals[top] {
						top = v
					}
				}
			}
			pats = append(pats, pat{rep: g[0], top: top, sup: int32(support)})
		}
		for _, v := range seen {
			k.cnt[v] = 0
		}
	}
	if c.impure > 0 && len(pats) > 0 {
		c.pats = slices.Clone(pats)
	}
	k.pats = pats
}

// yields reports whether a group with the given support and dominant
// A-value count contributes a pattern row: it is supported, and its
// dominant value clears MinConfidence (a pure group's is 1).
func (k *kernel) yields(support, top int) bool {
	return support >= k.cfg.MinSupport && float64(top)/float64(support) >= k.cfg.MinConfidence
}

// emit materializes the mined set in output order: a candidate not
// pruned is an FD when no group is impure and its evidence reaches
// MinSupport, and a pattern tableau when some group yielded a row.
func (k *kernel) emit() []Discovered {
	var out []Discovered
	for a, name := range k.attrs {
		for s := range k.subsets {
			c := &k.cands[s*len(k.attrs)+a]
			x := k.subsets[s].attrs
			switch {
			case c.pruned || slices.Contains(x, a):
			case c.impure == 0:
				if c.evidence >= k.cfg.MinSupport {
					cells := slices.Repeat([]core.Pattern{core.W()}, len(x)+1)
					row := core.PatternRow{X: cells[:len(x)], Y: cells[len(x):]}
					cfd := &core.CFD{LHS: k.names(x), RHS: []string{name}, Tableau: []core.PatternRow{row}}
					out = append(out, Discovered{CFD: cfd, IsFD: true, Support: []int{c.evidence}})
				}
			case len(c.pats) > 0:
				out = append(out, k.patterns(x, a, c.pats))
			}
		}
	}
	return out
}

// patterns builds the constant-pattern CFD X → A from its yielded rows:
// sorted by support, ties by X-projection in relation.CompareKeys order,
// then capped.
func (k *kernel) patterns(x []int, a int, pats []pat) Discovered {
	type row struct {
		x []relation.Value
		pat
	}
	w := len(x)
	xs := make([]relation.Value, len(pats)*w)
	rows := make([]row, len(pats))
	for i, p := range pats {
		rows[i] = row{xs[i*w : (i+1)*w], p}
		for j, b := range x {
			rows[i].x[j] = k.vals[b][k.cols[b][p.rep]]
		}
	}
	slices.SortFunc(rows, func(r, q row) int {
		if r.sup != q.sup {
			return int(q.sup - r.sup)
		}
		return relation.CompareKeys(r.x, q.x)
	})
	if k.cfg.MaxPatterns > 0 && len(rows) > k.cfg.MaxPatterns {
		rows = rows[:k.cfg.MaxPatterns]
	}
	cells := make([]core.Pattern, len(rows)*(w+1))
	tab := make([]core.PatternRow, len(rows))
	support := make([]int, len(rows))
	for i, r := range rows {
		c := cells[i*(w+1) : (i+1)*(w+1)]
		for j, v := range r.x {
			c[j] = core.C(v)
		}
		c[w] = core.C(k.vals[a][r.top])
		tab[i] = core.PatternRow{X: c[:w:w], Y: c[w:]}
		support[i] = int(r.sup)
	}
	cfd := &core.CFD{LHS: k.names(x), RHS: []string{k.attrs[a]}, Tableau: tab}
	return Discovered{CFD: cfd, Support: support}
}

func (k *kernel) names(x []int) []string {
	out := make([]string, len(x))
	for i, b := range x {
		out[i] = k.attrs[b]
	}
	return out
}
