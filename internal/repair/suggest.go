package repair

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/incremental"
	"repro/internal/obs"
	"repro/internal/relation"
)

// This file is the streaming counterpart of the batch algorithm in
// repair.go: a Suggester attaches to a live incremental.Monitor and
// maintains one cost-ranked repair suggestion per live violation,
// updated in O(Δ) from two feeds of its own:
//
//   - a touched-key subscription (Monitor.TrackDeltas) names the tuples
//     the applied batches changed on an attribute of Σ; each one's
//     constant-violation suggestions are re-planned from one probe of
//     the monitor's stores;
//   - a group-statistics subscription (Monitor.TrackGroups) over Σ's
//     own groups names the LHS groups that moved, one delta per RHS
//     attribute. Folded arithmetically, the deltas carry each CFD's live
//     confidence: the fraction of tuples agreeing with their LHS
//     group's dominant RHS value. The deltas that can move a variable
//     violation re-plan its suggestion (the rule below).
//
// The re-plan rule (replans). The paper's QV flags exactly the X-groups
// whose Y takes more than one value, so a group delta re-plans its
// (CFD, X) only when the delta's RHS attribute has, or had, two values
// in the group (Distinct > 1 || PrevDistinct > 1), or when the group
// kept a support of two or more. No needed re-plan is skipped:
//
//   - a group violates, and has a suggestion, only while some RHS
//     attribute has two values (the Monitor's group.violating);
//   - a change in a group's size marks every RHS attribute of the group
//     (watch.touch), so a violating group that grows, shrinks or dies
//     delivers a delta with Distinct > 1 or PrevDistinct > 1 for its
//     multi-valued attribute;
//   - one update of a single-valued attribute A outside X makes A
//     two-valued, unless the group has one member, which cannot
//     violate;
//   - deltas coalesce between drains, so several updates can rewrite A
//     in every member of a violating group, one value before and after
//     at the same support. When a pattern constant binds A, the plan
//     counts A's cells against it, so the support clause re-plans that
//     delta; otherwise the clause costs a change and its undo in one
//     window, which is rare.
//
// The subscription reads the Monitor's own groups, so TrackGroups folds
// no tuple. An attach therefore costs one drain of Σ's groups plus one
// plan per multi-valued group, not one per group: on 20 000 generated
// tax rows under the semantic Σ plus a TABSZ-200 workload CFD, the
// first Refresh drains 34 407 group deltas and re-plans 585 of them
// into 525 suggestions.
//
// The planning heuristics are the batch algorithm's, re-derived per
// violation instead of per pass:
//
//   - a constant violation suggests forcing the mismatching RHS cells
//     to their pattern constants (Σ is ground truth); when matched rows
//     force conflicting constants — the CFD-specific case where no RHS
//     value works — it suggests breaking the cheapest LHS cell instead;
//   - a variable violation suggests the cheaper of merging the group's
//     minority cells into the target value (the pattern constant when
//     bound, else the live distribution's majority) or breaking the
//     minority tuples out of the group via an LHS cell;
//   - when a CFD's live confidence falls below the trust threshold, its
//     data edits give way to a single constraint-relaxation suggestion —
//     the relative-trust loop of Beskales et al., on-stream.
//
// Suggestions are descriptors, not mutations: Plan materializes an
// accepted set into an ordinary ChangeSet that flows through the
// monitor's usual Apply path (WAL, group commit, replication and
// fencing all unchanged). The batch Repair remains as the from-scratch
// oracle the property tests compare convergence against.

// ErrUnknownSuggestion reports a Plan id that names no live suggestion —
// it was never issued, or retired when a later batch resolved (or
// reshaped) its violation. Callers re-fetch the current set and retry.
var ErrUnknownSuggestion = errors.New("unknown suggestion")

// SuggestionKind discriminates what a suggestion proposes.
type SuggestionKind uint8

const (
	// SuggestRHSEdit forces a constant-violating tuple's RHS cells to
	// the pattern constants.
	SuggestRHSEdit SuggestionKind = iota
	// SuggestValueMerge rewrites a conflicting group's minority cells to
	// the group target value.
	SuggestValueMerge
	// SuggestLHSBreak rewrites an LHS cell to a fresh placeholder,
	// breaking the pattern match (the FD-impossible move).
	SuggestLHSBreak
	// SuggestRelax proposes relaxing the CFD itself (add a pattern row
	// or retire it) because live confidence fell below the trust
	// threshold; it has no data edits.
	SuggestRelax
)

func (k SuggestionKind) String() string {
	switch k {
	case SuggestRHSEdit:
		return "rhs-edit"
	case SuggestValueMerge:
		return "value-merge"
	case SuggestLHSBreak:
		return "lhs-break"
	case SuggestRelax:
		return "relax-cfd"
	}
	return fmt.Sprintf("SuggestionKind(%d)", uint8(k))
}

// CellEdit is one proposed cell modification, keyed by the tuple's
// stable monitor key.
type CellEdit struct {
	Key  int64
	Attr string
	From relation.Value
	To   relation.Value
}

// Suggestion is one live, cost-ranked repair proposal, keyed to the
// violation it resolves. IDs are stable for the life of the violation
// ("c<cfd>:<key>" for constant violations, "v<cfd>:<x>" for variable
// ones, "r<cfd>" for relaxations), so a reviewer can accept a set
// across refreshes.
type Suggestion struct {
	ID   string
	CFD  int
	Kind SuggestionKind
	// Cost is the suggestion's estimated repair cost under the cost
	// model: the summed weights of the cells it would modify (a
	// relaxation charges 1 — one constraint edit).
	Cost float64
	// Key is the constant-violating tuple (SuggestRHSEdit, and
	// SuggestLHSBreak planned for a single tuple); 0 otherwise.
	Key int64
	// X is the violating group's X-projection (variable violations).
	X []relation.Value
	// Edits are the concrete cell edits, materialized eagerly for
	// single-tuple suggestions; group-level suggestions materialize
	// theirs at Plan time (membership is not indexed).
	Edits []CellEdit
	// Attr and To describe the group-level edit: the attribute to
	// rewrite and the merge target ("" for an LHS break, whose fresh
	// placeholders are allocated at Plan time).
	Attr string
	To   relation.Value
	// Tuples is the number of cell edits the suggestion implies.
	Tuples int
	// Confidence is the CFD's live confidence (SuggestRelax): over its
	// RHS attributes, the least fraction of tuples whose value agrees
	// with their LHS group's dominant one.
	Confidence float64
	// Reason is a one-line human-readable rationale.
	Reason string
}

// SuggestOptions configures a Suggester.
type SuggestOptions struct {
	// Cost weighs cell edits (nil = unit cost). The model's row
	// argument receives the tuple's monitor key truncated to int for
	// per-tuple decisions and -1 for group-level estimates.
	Cost *CostModel
	// TrustThreshold: when a CFD's live confidence (see
	// Suggestion.Confidence) falls below this, its data-edit suggestions
	// are replaced by one constraint-relaxation suggestion. 0 (the
	// default) never relaxes.
	TrustThreshold float64
}

// Suggester maintains live repair suggestions over a Monitor. Attach
// with NewSuggester, advance with Refresh (typically once per applied
// batch or per poll), detach with Close. All methods are safe for
// concurrent use with monitor mutations.
type Suggester struct {
	mu    sync.Mutex
	m     *incremental.Monitor
	sigma []*core.CFD
	opts  SuggestOptions
	sub   *incremental.DeltaSub
	hub   *incremental.GroupStats

	yIdx [][]int // per CFD, schema indexes of RHS
	// agree[a] and total[a] sum the dominant-value counts and sizes of
	// the groups of RHS attribute a of its CFD, moved by each drained
	// delta's change: agree/total is a's live confidence.
	agree, total map[rhsAttr]int

	sugs    map[string]*Suggestion
	relaxed []bool
	version uint64
	sorted  []Suggestion // cost-ranked cache, nil when stale
	freshN  int
	closed  bool

	metRefresh *obs.Histogram
	metTouched *obs.Counter
	metLive    *obs.Gauge
	metRelaxed *obs.Gauge
}

// NewSuggester attaches a streaming repair suggester to the monitor: a
// group-statistics subscription over Σ's groups and a touched-key
// subscription are opened, and the current violation set is planned.
// The first Refresh happens inside the constructor, so Suggestions is
// immediately complete.
func NewSuggester(m *incremental.Monitor, opts SuggestOptions) (*Suggester, error) {
	sigma := m.Sigma()
	s := &Suggester{
		m:       m,
		sigma:   sigma,
		opts:    opts,
		sugs:    make(map[string]*Suggestion),
		relaxed: make([]bool, len(sigma)),
	}
	for ci, cfd := range sigma {
		yIdx := make([]int, len(cfd.RHS))
		for yi, a := range cfd.RHS {
			j, ok := m.Schema().Index(a)
			if !ok {
				return nil, fmt.Errorf("repair: CFD %d: schema %q has no attribute %q", ci, m.Schema().Name, a)
			}
			yIdx[yi] = j
		}
		s.yIdx = append(s.yIdx, yIdx)
	}
	s.agree, s.total = make(map[rhsAttr]int), make(map[rhsAttr]int)
	s.hub = m.TrackGroups()
	s.sub = m.TrackDeltas()
	reg := m.Metrics()
	s.metRefresh = reg.DurationHistogram("cfd_suggester_refresh_seconds", "Duration of one Suggester.Refresh pass (drain + re-plan).")
	s.metTouched = reg.Counter("cfd_suggester_replanned_total", "Touched keys plus group deltas that pass the re-plan rule (an RHS attribute with two values in the group), re-planned across Refresh passes.")
	s.metLive = reg.Gauge("cfd_suggestions", "Live repair suggestions currently maintained.")
	s.metRelaxed = reg.Gauge("cfd_suggester_relaxed_cfds", "CFDs currently below the trust threshold (relaxation suggested).")
	s.Refresh()
	return s, nil
}

// Close detaches the suggester from the monitor's apply path. The last
// refreshed suggestions stay readable.
func (s *Suggester) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.m.UntrackGroups(s.hub)
	s.m.UntrackDeltas(s.sub)
}

// Refresh drains the keys and groups touched since the last call,
// re-plans the touched keys and the group deltas the re-plan rule
// selects — O(Δ), not O(|I|) — then re-evaluates the trust threshold
// per CFD. It returns how many it re-planned: the touched keys plus the
// group deltas that passed the rule, not every drained delta.
func (s *Suggester) Refresh() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	keys := s.sub.Drain()
	for _, k := range keys {
		s.refreshKey(k)
	}
	n := len(keys)
	s.hub.DrainFunc(func(d *incremental.GroupDelta) {
		if s.refreshGroup(d) {
			n++
		}
	})
	s.refreshTrust()
	s.metTouched.Add(uint64(n))
	s.metLive.Set(int64(len(s.sugs)))
	s.metRefresh.ObserveSince(start)
	return n
}

// Version is the suggestion-set version: it advances only when the set
// actually changes, so it doubles as an ETag for pollers.
func (s *Suggester) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// Suggestions returns the live suggestion set, cost-ranked ascending
// (ties by ID), as of the last Refresh. The slice and its interior
// slices are shared — treat them as read-only.
func (s *Suggester) Suggestions() []Suggestion {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rankedLocked()
}

func (s *Suggester) rankedLocked() []Suggestion {
	if s.sorted == nil {
		s.sorted = make([]Suggestion, 0, len(s.sugs))
		for _, sg := range s.sugs {
			s.sorted = append(s.sorted, *sg)
		}
		sort.Slice(s.sorted, func(i, j int) bool {
			if s.sorted[i].Cost != s.sorted[j].Cost {
				return s.sorted[i].Cost < s.sorted[j].Cost
			}
			return s.sorted[i].ID < s.sorted[j].ID
		})
	}
	return s.sorted
}

// bump invalidates the ranked cache and advances the version.
func (s *Suggester) bump() {
	s.version++
	s.sorted = nil
}

func (s *Suggester) put(sug *Suggestion) {
	if old, ok := s.sugs[sug.ID]; ok && old.equal(sug) {
		return
	}
	s.sugs[sug.ID] = sug
	s.bump()
}

func (s *Suggester) dropID(id string) {
	if _, ok := s.sugs[id]; ok {
		delete(s.sugs, id)
		s.bump()
	}
}

func (a *Suggestion) equal(b *Suggestion) bool {
	if a.Kind != b.Kind || a.Cost != b.Cost || a.Attr != b.Attr || a.To != b.To ||
		a.Tuples != b.Tuples || a.Confidence != b.Confidence || len(a.Edits) != len(b.Edits) {
		return false
	}
	for i := range a.Edits {
		if a.Edits[i] != b.Edits[i] {
			return false
		}
	}
	return true
}

func constID(ci int, key int64) string {
	return "c" + strconv.Itoa(ci) + ":" + strconv.FormatInt(key, 10)
}

func varID(ci int, x []relation.Value) string {
	return "v" + strconv.Itoa(ci) + ":" + relation.EncodeKey(x)
}

func relaxID(ci int) string { return "r" + strconv.Itoa(ci) }

func (s *Suggester) weight(key int64, attr string) float64 {
	return s.opts.Cost.weight(int(key), attr)
}

// forcedY folds the constant Y cells of the matched tableau rows into one
// forced value per RHS attribute: bound[yi] reports that some row binds
// attribute yi, and conflict that two rows bind one attribute to
// different constants (the first binding is kept).
func forcedY(cfd *core.CFD, rows []int) (forced []relation.Value, bound []bool, matched []core.PatternRow, conflict bool) {
	forced = make([]relation.Value, len(cfd.RHS))
	bound = make([]bool, len(cfd.RHS))
	for _, ri := range rows {
		row := cfd.Tableau[ri]
		matched = append(matched, row)
		for yi, p := range row.Y {
			if p.Kind != core.Const {
				continue
			}
			if bound[yi] && forced[yi] != p.Val {
				conflict = true
				continue
			}
			bound[yi], forced[yi] = true, p.Val
		}
	}
	return forced, bound, matched, conflict
}

// refreshKey re-plans the constant-violation suggestions of one touched
// tuple against the authoritative state: one store probe names the CFDs
// whose constants the tuple violates, their suggestions are re-derived,
// and every other CFD's is dropped.
func (s *Suggester) refreshKey(key int64) {
	cis := s.m.ConstViolations(key)
	var t relation.Tuple
	if len(cis) > 0 {
		t, _ = s.m.Get(key)
	}
	for ci := range s.sigma {
		var sug *Suggestion
		if t != nil && !s.relaxed[ci] && slices.Contains(cis, ci) {
			sug = s.planConst(ci, key, t)
		}
		if sug != nil {
			s.put(sug)
		} else {
			s.dropID(constID(ci, key))
		}
	}
}

// rhsAttr names one RHS attribute of one CFD: its index in Σ and its
// position in the CFD's RHS.
type rhsAttr struct{ ci, yi int }

// refreshGroup folds one drained group delta into its RHS attribute's
// confidence aggregates and, when the delta can move the group's
// variable suggestion, re-plans it. It reports whether it did.
func (s *Suggester) refreshGroup(d *incremental.GroupDelta) bool {
	a := rhsAttr{d.CFD, d.Y}
	s.agree[a] += d.TopCount - d.PrevTopCount
	s.total[a] += d.Support - d.PrevSupport
	if !replans(d) {
		return false
	}
	s.refreshVar(d.CFD, d.XKey, d.X)
	return true
}

// replans is the re-plan rule of the file comment.
func replans(d *incremental.GroupDelta) bool {
	return d.Distinct > 1 || d.PrevDistinct > 1 || (d.Support > 1 && d.Support == d.PrevSupport)
}

// planConst derives the suggestion for tuple t's constant violation of
// CFD ci: force the mismatching RHS cells to their pattern constants, or
// break the LHS when matched rows force conflicting constants.
func (s *Suggester) planConst(ci int, key int64, t relation.Tuple) *Suggestion {
	cfd := s.sigma[ci]
	schema := s.m.Schema()
	xs := make([]relation.Value, len(cfd.LHS))
	for i, a := range cfd.LHS {
		xs[i] = t[schema.MustIndex(a)]
	}
	forced, bound, matched, conflict := forcedY(cfd, s.m.MatchingRows(ci, xs))
	if conflict {
		return s.planBreakTuple(ci, key, matched)
	}
	var edits []CellEdit
	cost := 0.0
	for yi, a := range cfd.RHS {
		cur := t[s.yIdx[ci][yi]]
		if !bound[yi] || cur == forced[yi] {
			continue
		}
		edits = append(edits, CellEdit{Key: key, Attr: a, From: cur, To: forced[yi]})
		cost += s.weight(key, a)
	}
	if len(edits) == 0 {
		return nil
	}
	return &Suggestion{
		ID: constID(ci, key), CFD: ci, Kind: SuggestRHSEdit,
		Cost: cost, Key: key, Edits: edits, Tuples: len(edits),
		Reason: fmt.Sprintf("tuple %d violates a pattern constant of CFD %d: force the RHS to the pattern value", key, ci),
	}
}

// planBreakTuple suggests breaking one tuple's pattern match via its
// cheapest eligible LHS cell.
func (s *Suggester) planBreakTuple(ci int, key int64, matched []core.PatternRow) *Suggestion {
	cfd := s.sigma[ci]
	attr, w, ok := s.breakCell(cfd, matched, key)
	if !ok {
		return nil
	}
	return &Suggestion{
		ID: constID(ci, key), CFD: ci, Kind: SuggestLHSBreak,
		Cost: w, Key: key, Attr: attr, Tuples: 1,
		Reason: fmt.Sprintf("matched rows of CFD %d force conflicting constants for tuple %d: no RHS value works, break the LHS match on %s", ci, key, attr),
	}
}

// breakCell picks the cheapest LHS cell able to break a pattern match:
// constant-pattern cells first (any fresh value un-matches the row),
// then wildcard cells (the fresh value splits the tuple from its
// X-group). Attributes with finite domains are skipped — they cannot
// hold a fresh placeholder. key < 0 means a group-level estimate.
func (s *Suggester) breakCell(cfd *core.CFD, matched []core.PatternRow, key int64) (string, float64, bool) {
	schema := s.m.Schema()
	best, bestW := "", 0.0
	pick := func(kind core.PatternKind) bool {
		for _, row := range matched {
			for i, a := range cfd.LHS {
				if row.X[i].Kind != kind || schema.Domain(a).Finite() {
					continue
				}
				if w := s.weight(key, a); best == "" || w < bestW {
					best, bestW = a, w
				}
			}
		}
		return best != ""
	}
	if pick(core.Const) {
		return best, bestW, true
	}
	if pick(core.Wildcard) {
		return best, bestW, true
	}
	return "", 0, false
}

// refreshVar re-plans the suggestion of one (cfd, X-group) variable
// violation against the authoritative state. xkey is the group's packed
// key (GroupDelta.XKey), which is also the monitor's key for the group.
func (s *Suggester) refreshVar(ci int, xkey string, x []relation.Value) {
	id := varID(ci, x)
	if s.relaxed[ci] {
		s.dropID(id)
		return
	}
	if !s.m.ViolatingGroup(ci, xkey) {
		s.dropID(id)
		return
	}
	if sug := s.planVar(ci, xkey, x); sug != nil {
		s.put(sug)
	} else {
		s.dropID(id)
	}
}

// varTargets derives a violating group's per-RHS-attribute target
// values: the pattern constant when some matched row binds one, the
// live distribution's majority otherwise. conflict reports matched
// rows forcing contradictory constants (merge impossible).
func (s *Suggester) varTargets(ci int, x []relation.Value, xkey string) (targets []relation.Value, matched []core.PatternRow, conflict bool) {
	cfd := s.sigma[ci]
	targets, bound, matched, conflict := forcedY(cfd, s.m.MatchingRows(ci, x))
	for yi := range cfd.RHS {
		if bound[yi] {
			continue
		}
		st, ok := s.hub.Stat(ci, yi, xkey)
		if !ok {
			return nil, nil, false
		}
		targets[yi] = st.Top
	}
	return targets, matched, conflict
}

// planVar derives the suggestion for a variable violation: the cheaper
// of merging minority cells into the target values or breaking the
// minority tuples' LHS match.
func (s *Suggester) planVar(ci int, xkey string, x []relation.Value) *Suggestion {
	cfd := s.sigma[ci]
	targets, matched, conflict := s.varTargets(ci, x, xkey)
	if targets == nil || len(matched) == 0 {
		return nil
	}
	mergeCost, mergeEdits := 0.0, 0
	maxMinority := 0
	var attr string
	var to relation.Value
	for yi, a := range cfd.RHS {
		st, ok := s.hub.Stat(ci, yi, xkey)
		if !ok {
			return nil
		}
		minority := st.Support - s.hub.Count(ci, yi, xkey, targets[yi])
		if minority <= 0 {
			continue
		}
		mergeCost += float64(minority) * s.weight(-1, a)
		mergeEdits += minority
		if minority > maxMinority {
			maxMinority = minority
		}
		if attr == "" {
			attr, to = a, targets[yi]
		}
	}
	if mergeEdits == 0 {
		return nil
	}
	id := varID(ci, x)
	breakAttr, breakW, canBreak := s.breakCell(cfd, matched, -1)
	breakCost := float64(maxMinority) * breakW
	if conflict || (canBreak && breakCost < mergeCost) {
		if !canBreak {
			return nil
		}
		return &Suggestion{
			ID: id, CFD: ci, Kind: SuggestLHSBreak,
			Cost: breakCost, X: x, Attr: breakAttr, Tuples: maxMinority,
			Reason: fmt.Sprintf("group (%s) disagrees on the RHS of CFD %d: break the minority tuples' LHS match on %s", relation.EncodeKey(x), ci, breakAttr),
		}
	}
	return &Suggestion{
		ID: id, CFD: ci, Kind: SuggestValueMerge,
		Cost: mergeCost, X: x, Attr: attr, To: to, Tuples: mergeEdits,
		Reason: fmt.Sprintf("group (%s) disagrees on the RHS of CFD %d: merge the minority cells into %q", relation.EncodeKey(x), ci, to),
	}
}

// confidence is CFD ci's live confidence: the least, over its RHS
// attributes, of the fraction of tuples whose value agrees with their
// LHS group's dominant one (1 on an empty instance).
func (s *Suggester) confidence(ci int) float64 {
	worst := 1.0
	for yi := range s.yIdx[ci] {
		if a := (rhsAttr{ci, yi}); s.total[a] > 0 {
			worst = min(worst, float64(s.agree[a])/float64(s.total[a]))
		}
	}
	return worst
}

// refreshTrust re-evaluates each CFD against the trust threshold and
// swaps between data-edit and relaxation mode on crossings.
func (s *Suggester) refreshTrust() {
	if s.opts.TrustThreshold <= 0 {
		return
	}
	relaxed := int64(0)
	for ci := range s.sigma {
		if worst := s.confidence(ci); worst < s.opts.TrustThreshold {
			relaxed++
			if !s.relaxed[ci] {
				s.relaxed[ci] = true
				for id, sg := range s.sugs {
					if sg.CFD == ci && sg.Kind != SuggestRelax {
						delete(s.sugs, id)
						s.bump()
					}
				}
			}
			s.put(&Suggestion{
				ID: relaxID(ci), CFD: ci, Kind: SuggestRelax,
				Cost: 1, Confidence: worst,
				Reason: fmt.Sprintf("live confidence %.3f for CFD %d is below the trust threshold %.3f: relax the constraint (add a pattern row for the dominant conflicting groups, or retire it) instead of editing data", worst, ci, s.opts.TrustThreshold),
			})
			continue
		}
		if s.relaxed[ci] {
			s.relaxed[ci] = false
			s.dropID(relaxID(ci))
			s.reseed(ci)
		}
	}
	s.metRelaxed.Set(relaxed)
}

// reseed re-plans every live violation of one CFD from the view — the
// re-entry path when a CFD's confidence recovers above the threshold.
func (s *Suggester) reseed(ci int) {
	st := s.m.Violations()
	if ci >= len(st.PerCFD) {
		return
	}
	v := st.PerCFD[ci]
	for _, k := range v.ConstTuples {
		s.refreshKey(k)
	}
	for _, x := range v.VariableKeys {
		s.refreshVar(ci, s.hub.KeyOf(x), x)
	}
}

func (s *Suggester) fresh() relation.Value {
	s.freshN++
	return fmt.Sprintf("\x00unk:s%d", s.freshN)
}

// Plan materializes an accepted suggestion set into a ChangeSet of
// ordinary updates against the current instance, plus the concrete
// cell-edit list for review. Group-level suggestions enumerate their
// members here (an O(|I|) integer scan — the apply path is human-paced,
// the refresh path never pays it). Relaxation suggestions are
// constraint changes, not data edits, and are rejected.
func (s *Suggester) Plan(ids []string) (*incremental.ChangeSet, []CellEdit, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var cs incremental.ChangeSet
	var edits []CellEdit
	add := func(key int64, attr string, to relation.Value) {
		t, ok := s.m.Get(key)
		if !ok {
			return
		}
		from := t[s.m.Schema().MustIndex(attr)]
		if from == to {
			return
		}
		cs.Update(key, attr, to)
		edits = append(edits, CellEdit{Key: key, Attr: attr, From: from, To: to})
	}
	for _, id := range ids {
		sug, ok := s.sugs[id]
		if !ok {
			return nil, nil, fmt.Errorf("repair: %w: %q", ErrUnknownSuggestion, id)
		}
		switch sug.Kind {
		case SuggestRelax:
			return nil, nil, fmt.Errorf("repair: suggestion %q proposes a constraint change, not a data edit; edit Σ instead", id)
		case SuggestRHSEdit:
			for _, e := range sug.Edits {
				add(e.Key, e.Attr, e.To)
			}
		case SuggestLHSBreak:
			if sug.X == nil {
				add(sug.Key, sug.Attr, s.fresh())
				continue
			}
			keys, targets, err := s.groupMembers(sug.CFD, sug.X)
			if err != nil {
				return nil, nil, err
			}
			for _, k := range keys {
				if s.memberAgrees(sug.CFD, k, targets) {
					continue
				}
				// A distinct placeholder per tuple: two broken tuples
				// sharing one would just form a new conflicting group.
				add(k, sug.Attr, s.fresh())
			}
		case SuggestValueMerge:
			keys, targets, err := s.groupMembers(sug.CFD, sug.X)
			if err != nil {
				return nil, nil, err
			}
			cfd := s.sigma[sug.CFD]
			for _, k := range keys {
				t, ok := s.m.Get(k)
				if !ok {
					continue
				}
				for yi, a := range cfd.RHS {
					if cur := t[s.yIdx[sug.CFD][yi]]; cur != targets[yi] {
						cs.Update(k, a, targets[yi])
						edits = append(edits, CellEdit{Key: k, Attr: a, From: cur, To: targets[yi]})
					}
				}
			}
		}
	}
	return &cs, edits, nil
}

// groupMembers enumerates a violating group's member keys and its
// current per-RHS target values.
func (s *Suggester) groupMembers(ci int, x []relation.Value) ([]int64, []relation.Value, error) {
	targets, _, _ := s.varTargets(ci, x, s.hub.KeyOf(x))
	if targets == nil {
		return nil, nil, fmt.Errorf("repair: group (%s) of CFD %d is gone", relation.EncodeKey(x), ci)
	}
	keys, err := s.m.MatchingKeys(s.sigma[ci].LHS, x)
	if err != nil {
		return nil, nil, err
	}
	return keys, targets, nil
}

// memberAgrees reports whether a member tuple already holds every
// target RHS value.
func (s *Suggester) memberAgrees(ci int, key int64, targets []relation.Value) bool {
	t, ok := s.m.Get(key)
	if !ok {
		return true
	}
	for yi := range targets {
		if t[s.yIdx[ci][yi]] != targets[yi] {
			return false
		}
	}
	return true
}
