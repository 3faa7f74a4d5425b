package discovery

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/incremental"
	"repro/internal/obs"
	"repro/internal/relation"
)

// Miner is streaming CFD discovery over a live incremental.Monitor: the
// candidate lattice of embedded FDs X → A (|X| ≤ MaxLHS) is held as
// stateful per-group scores, fed by the monitor's group-statistics
// substrate (Monitor.TrackGroups). Refresh drains the group-deltas the
// applied ChangeSets left behind and re-scores exactly the groups they
// touched; the full instance is scanned once, at attach time, and never
// again.
//
// The miner keeps no copy of the substrate's groups. Each drained
// delta carries the group's previous and current statistics, so a
// candidate's aggregates move by subtracting the one and adding the
// other; the only per-group state is the pattern row of each group
// that currently contributes one, which Mined prints.
//
// A Miner is safe for concurrent use with monitor mutations: Refresh
// and Mined serialize on the miner's own mutex, and each drain reads
// the substrate under its lock, between two applied requests. Under
// concurrent writers the mined set is eventually consistent — every
// change is re-scored by some later Refresh, and a quiescent monitor
// always yields exactly Discover's output on the same instance
// (property-tested).
type Miner struct {
	mu     sync.Mutex
	cfg    Config
	m      *incremental.Monitor
	hub    *incremental.GroupStats
	cands  []candidate
	det    []bool // scratch of the per-emit pruning pass
	closed bool

	// Metric handles, registered on the monitor's registry at attach
	// time.
	metRefresh  *obs.Histogram
	metRescored *obs.Counter
	metCands    *obs.Gauge
	metMined    *obs.Gauge
}

// MinedChangeKind discriminates the outcome of a Refresh for one
// embedded FD.
type MinedChangeKind uint8

const (
	// MinedAppeared reports an embedded FD that newly entered the mined
	// set (as a global FD or with its first pattern rows).
	MinedAppeared MinedChangeKind = iota
	// MinedUpdated reports an embedded FD that stayed mined but changed
	// form: it flipped between FD and pattern form, or its pattern count
	// moved. Support drift alone is not reported.
	MinedUpdated
	// MinedRetired reports an embedded FD that left the mined set — its
	// last pattern lost support, the FD broke without minable patterns,
	// or a newly-holding subset FD now prunes it.
	MinedRetired
)

func (k MinedChangeKind) String() string {
	switch k {
	case MinedAppeared:
		return "appeared"
	case MinedUpdated:
		return "updated"
	case MinedRetired:
		return "retired"
	}
	return fmt.Sprintf("MinedChangeKind(%d)", uint8(k))
}

// MinedChange is one Refresh outcome: the embedded FD it concerns and
// the form it currently takes.
type MinedChange struct {
	Kind MinedChangeKind
	// LHS and RHS identify the embedded FD.
	LHS []string
	RHS string
	// IsFD reports the current form (all-wildcard FD vs pattern tableau);
	// for MinedRetired it is the form that was lost.
	IsFD bool
	// Patterns is the current pattern-row count (0 in FD form).
	Patterns int
}

// String renders the change for logs and the CLI surfaces.
func (c MinedChange) String() string {
	form := fmt.Sprintf("%d patterns", c.Patterns)
	if c.IsFD {
		form = "fd"
	}
	sign := map[MinedChangeKind]string{MinedAppeared: "+", MinedUpdated: "~", MinedRetired: "-"}[c.Kind]
	return fmt.Sprintf("%s %v -> %s (%s)", sign, c.LHS, c.RHS, form)
}

// emitKind is a candidate's current place in the mined set.
type emitKind uint8

const (
	emitNone emitKind = iota
	emitFD
	emitPatterns
)

// patRow is the pattern row one contributing X-group yields: its
// X-projection, the dominant A-value as RHS constant, and the group's
// support (as in CFDMiner-style mining).
type patRow struct {
	x   []relation.Value
	val relation.Value
	sup int
}

// candidate is one embedded FD of the lattice with its aggregate scores,
// maintained incrementally by tallying group statistics in and out.
type candidate struct {
	pair incremental.AttrPair
	// subs indexes the (|X|-1)-subset candidates with the same RHS;
	// pruning consults only these — determination is transitive.
	subs []int32
	// pats holds the pattern rows of the groups currently contributing
	// one, by XKey; nil until the first.
	pats map[string]patRow
	// impure counts groups whose members disagree on A; the FD holds
	// globally iff it is zero.
	impure int
	// evidence counts the tuples in groups of size ≥ 2 — the tuples that
	// actually test the FD. An FD over a near-unique LHS holds vacuously
	// and is only emitted once evidence reaches MinSupport.
	evidence int
	// cur/curPatterns are the candidate's emission state as of the last
	// Refresh, diffed to produce MinedChanges.
	cur         emitKind
	curPatterns int
}

// tally adds (sign 1) or subtracts (sign -1) one group's contribution,
// given its support and distinct A-values. A support of 0 — no group —
// contributes nothing.
func (c *candidate) tally(sign, support, distinct int) {
	if distinct > 1 {
		c.impure += sign
	}
	if support >= 2 {
		c.evidence += sign * support
	}
}

// fdKey canonically names an embedded FD.
func fdKey(x []string, a string) string {
	vals := make([]relation.Value, 0, len(x)+2)
	vals = append(vals, x...)
	vals = append(vals, "->", a)
	return relation.EncodeKey(vals)
}

// NewMiner attaches a streaming miner to the monitor: the candidate
// lattice over the monitor's schema is registered with the
// group-statistics substrate, the current instance is folded in, and
// the initial scores are computed. Detach with Close; a closed miner
// keeps serving its last state but no longer follows the monitor.
func NewMiner(m *incremental.Monitor, cfg Config) (*Miner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	attrs := m.Schema().Names()
	subsets := subsetsUpTo(attrs, cfg.MaxLHS)

	// Enumeration order (RHS-major, subsets smaller-first) is the output
	// order of Mined and the processing order of the pruning pass: every
	// candidate's subset candidates precede it.
	var pairs []incremental.AttrPair
	var cands []candidate
	index := make(map[string]int32)
	for _, a := range attrs {
		for _, x := range subsets {
			if contains(x, a) {
				continue
			}
			index[fdKey(x, a)] = int32(len(cands))
			pairs = append(pairs, incremental.AttrPair{X: x, A: a})
			cands = append(cands, candidate{pair: incremental.AttrPair{X: x, A: a}})
		}
	}
	for ci := range cands {
		x, a := cands[ci].pair.X, cands[ci].pair.A
		if len(x) <= 1 {
			continue
		}
		for drop := range x {
			sub := make([]string, 0, len(x)-1)
			for i, v := range x {
				if i != drop {
					sub = append(sub, v)
				}
			}
			if si, ok := index[fdKey(sub, a)]; ok {
				cands[ci].subs = append(cands[ci].subs, si)
			}
		}
	}

	hub, err := m.TrackGroups(pairs)
	if err != nil {
		return nil, err
	}
	mi := &Miner{cfg: cfg, m: m, hub: hub, cands: cands, det: make([]bool, len(cands))}
	reg := m.Metrics()
	mi.metRefresh = reg.DurationHistogram("cfd_miner_refresh_seconds", "Duration of one Miner.Refresh pass (drain + re-score + emit).")
	mi.metRescored = reg.Counter("cfd_miner_groups_rescored_total", "Touched groups re-scored across Refresh passes.")
	mi.metCands = reg.Gauge("cfd_miner_candidates", "Embedded-FD candidates in the miner's lattice.")
	mi.metMined = reg.Gauge("cfd_miner_mined_cfds", "Embedded FDs currently in the mined set (FD or pattern form).")
	mi.metCands.Set(int64(len(cands)))
	mi.Refresh() // the fold left every group dirty: score the initial state
	return mi, nil
}

// Close detaches the miner from the monitor's apply path. The last
// refreshed state stays readable.
func (mi *Miner) Close() {
	mi.mu.Lock()
	defer mi.mu.Unlock()
	if mi.closed {
		return
	}
	mi.closed = true
	mi.m.UntrackGroups(mi.hub)
}

// Refresh drains the group-deltas accumulated since the last call and
// re-scores exactly the touched groups, then re-evaluates the lattice's
// emission set (including minimality pruning, which is dynamic: a
// subset FD breaking un-prunes its supersets). It returns the mined
// set's net changes — embedded FDs that appeared, changed form, or
// retired. Cost is proportional to the groups the interleaving
// ChangeSets touched, not to the instance.
func (mi *Miner) Refresh() []MinedChange {
	mi.mu.Lock()
	defer mi.mu.Unlock()
	start := time.Now()
	mi.metRescored.Add(uint64(mi.hub.DrainFunc(mi.rescore)))
	out := mi.emit()
	var mined int64
	for ci := range mi.cands {
		if mi.cands[ci].cur != emitNone {
			mined++
		}
	}
	mi.metMined.Set(mined)
	mi.metRefresh.ObserveSince(start)
	return out
}

// rescore moves one drained group from its previous statistics to its
// current ones: the candidate's aggregates lose the old contribution and
// gain the new, and the group's pattern row is stored, replaced or
// dropped. It runs inside the drain, so the delta is one consistent
// reading of the group.
func (mi *Miner) rescore(d *incremental.GroupDelta) {
	c := &mi.cands[d.Pair]
	c.tally(-1, d.PrevSupport, d.PrevDistinct)
	c.tally(1, d.Support, d.Distinct)
	switch {
	case mi.yields(d.Support, d.TopCount):
		if c.pats == nil {
			c.pats = make(map[string]patRow)
		}
		c.pats[d.XKey] = patRow{x: d.X, val: d.Top, sup: d.Support}
	case mi.yields(d.PrevSupport, d.PrevTopCount):
		delete(c.pats, d.XKey)
	}
}

// yields reports whether a group with the given support and dominant
// A-value count contributes a pattern row: it is supported, and its
// dominant value clears MinConfidence (a pure group's is 1).
func (mi *Miner) yields(support, top int) bool {
	return support >= mi.cfg.MinSupport && float64(top)/float64(support) >= mi.cfg.MinConfidence
}

// emit re-evaluates every candidate's place in the mined set and diffs
// it against the previous pass. O(candidates) — group work happened in
// rescore, inside the drain.
func (mi *Miner) emit() []MinedChange {
	var out []MinedChange
	for ci := range mi.cands {
		c := &mi.cands[ci]
		pruned := false
		for _, si := range c.subs {
			if mi.det[si] {
				pruned = true
				break
			}
		}
		// A pruned candidate is itself determining — its LHS contains a
		// determining subset — so determination closes transitively and
		// supersets of a pruned candidate prune too.
		mi.det[ci] = pruned || c.impure == 0
		kind := emitNone
		if !pruned {
			if c.impure == 0 {
				if c.evidence >= mi.cfg.MinSupport {
					kind = emitFD
				}
			} else if len(c.pats) > 0 {
				kind = emitPatterns
			}
		}
		// Report (and diff on) the pattern count Mined actually emits —
		// the MaxPatterns cap applies here too, so contributing groups
		// beyond the cap neither inflate the count nor fire updates.
		patterns := len(c.pats)
		if mi.cfg.MaxPatterns > 0 && patterns > mi.cfg.MaxPatterns {
			patterns = mi.cfg.MaxPatterns
		}
		switch {
		case kind != emitNone && c.cur == emitNone:
			out = append(out, minedChange(MinedAppeared, c, kind, patterns))
		case kind == emitNone && c.cur != emitNone:
			out = append(out, minedChange(MinedRetired, c, c.cur, c.curPatterns))
		case kind != emitNone && (kind != c.cur || (kind == emitPatterns && patterns != c.curPatterns)):
			out = append(out, minedChange(MinedUpdated, c, kind, patterns))
		}
		c.cur, c.curPatterns = kind, patterns
	}
	return out
}

func minedChange(k MinedChangeKind, c *candidate, form emitKind, patterns int) MinedChange {
	ch := MinedChange{Kind: k, LHS: c.pair.X, RHS: c.pair.A, IsFD: form == emitFD}
	if form == emitPatterns {
		ch.Patterns = patterns
	}
	return ch
}

// Mined materializes the current mined set, in the candidate lattice's
// canonical order, as of the last Refresh. Pattern rows are ordered by
// support (descending), ties by encoded X-projection, and capped at
// MaxPatterns.
func (mi *Miner) Mined() ([]Discovered, error) {
	mi.mu.Lock()
	defer mi.mu.Unlock()
	var out []Discovered
	for ci := range mi.cands {
		c := &mi.cands[ci]
		switch c.cur {
		case emitFD:
			row := core.PatternRow{X: make([]core.Pattern, len(c.pair.X)), Y: []core.Pattern{core.W()}}
			for i := range row.X {
				row.X[i] = core.W()
			}
			cfd, err := core.NewCFD(c.pair.X, []string{c.pair.A}, row)
			if err != nil {
				return nil, err
			}
			out = append(out, Discovered{CFD: cfd, IsFD: true, Support: []int{c.evidence}})
		case emitPatterns:
			d, err := c.buildPatterns(mi.cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, *d)
		}
	}
	return out, nil
}

// buildPatterns assembles one pattern-form Discovered from the
// candidate's contributing groups.
func (c *candidate) buildPatterns(cfg Config) (*Discovered, error) {
	type pat struct {
		key string
		row patRow
	}
	pats := make([]pat, 0, len(c.pats))
	for _, row := range c.pats {
		// Tie-break on the value-encoded X, not the store's opaque XKey:
		// the latter is built from interner IDs, whose order depends on
		// arrival order, while the mined set must be deterministic for a
		// given instance (and match Discover).
		pats = append(pats, pat{key: relation.EncodeKey(row.x), row: row})
	}
	sort.Slice(pats, func(i, j int) bool {
		if pats[i].row.sup != pats[j].row.sup {
			return pats[i].row.sup > pats[j].row.sup
		}
		return pats[i].key < pats[j].key
	})
	if cfg.MaxPatterns > 0 && len(pats) > cfg.MaxPatterns {
		pats = pats[:cfg.MaxPatterns]
	}
	rows := make([]core.PatternRow, len(pats))
	support := make([]int, len(pats))
	for i, p := range pats {
		row := core.PatternRow{X: make([]core.Pattern, len(p.row.x)), Y: []core.Pattern{core.C(p.row.val)}}
		for j, v := range p.row.x {
			row.X[j] = core.C(v)
		}
		rows[i] = row
		support[i] = p.row.sup
	}
	cfd, err := core.NewCFD(c.pair.X, []string{c.pair.A}, rows...)
	if err != nil {
		return nil, err
	}
	return &Discovered{CFD: cfd, Support: support}, nil
}
