package repro

import (
	"repro/internal/repair"
)

// Repair (Section 6).
type (
	// RepairOptions configures the heuristic.
	RepairOptions = repair.Options
	// RepairResult is the outcome: repaired instance, change log, cost.
	RepairResult = repair.Result
	// RepairChange is one applied cell modification.
	RepairChange = repair.Change
	// RepairCostModel weights cell modifications.
	RepairCostModel = repair.CostModel
)

// Repair computes a heuristic repair I′ of the instance with I′ ⊨ Σ
// (certified in RepairResult.Satisfied).
func Repair(rel *Relation, sigma []*CFD, opts RepairOptions) (*RepairResult, error) {
	return repair.Repair(rel, sigma, opts)
}

// Incremental repair-on-stream (the live counterpart of Repair; see the
// "Live repair" section of the package documentation): a RepairSuggester
// rides the Monitor's group statistics — its constant-violation key
// marks and group deltas — and maintains a cost-ranked suggestion per
// live violation, re-planning only the keys and groups each ChangeSet
// marked — O(Δ) per batch, not
// O(|I|). Accepted suggestions become ordinary ChangeSets via Plan, so
// applying a fix goes through the same WAL/replication/fencing path as
// any other write. cfdserve serves this surface as GET /v1/repairs and
// POST /v1/repairs/apply.
type (
	// RepairSuggester is a live suggestion engine attached to a Monitor
	// (see WatchRepairs): Refresh folds in what changed, Suggestions
	// returns the current cost-ranked set, Plan converts accepted
	// suggestions into a ChangeSet.
	RepairSuggester = repair.Suggester
	// RepairSuggestion is one live cost-ranked fix: an RHS edit, a group
	// value-merge, an LHS break, or a constraint relaxation.
	RepairSuggestion = repair.Suggestion
	// RepairSuggestionKind discriminates RepairSuggestion kinds.
	RepairSuggestionKind = repair.SuggestionKind
	// RepairCellEdit is one concrete cell modification within a planned
	// suggestion.
	RepairCellEdit = repair.CellEdit
	// SuggestOptions configures a RepairSuggester: the cost model, and
	// the relative-trust threshold below which a CFD's live confidence
	// (from the suggester's own group statistics) switches it from data
	// edits to a relaxation suggestion.
	SuggestOptions = repair.SuggestOptions
)

// RepairSuggestion kinds (see RepairSuggestion.Kind).
const (
	// SuggestRHSEdit fixes a constant violation by editing RHS cells to
	// the pattern's constants.
	SuggestRHSEdit = repair.SuggestRHSEdit
	// SuggestValueMerge fixes a variable violation by merging the
	// group's RHS values onto the cheapest target.
	SuggestValueMerge = repair.SuggestValueMerge
	// SuggestLHSBreak dissolves a group (or detaches a tuple from its
	// pattern) by moving the cheapest LHS cell to a fresh value.
	SuggestLHSBreak = repair.SuggestLHSBreak
	// SuggestRelax proposes relaxing the CFD itself instead of editing
	// data — emitted when the trust loop finds the constraint less
	// credible than the data.
	SuggestRelax = repair.SuggestRelax
)

// ErrUnknownRepairSuggestion reports a RepairSuggester.Plan id that
// names no live suggestion (never issued, or retired by a later batch);
// re-fetch Suggestions and retry.
var ErrUnknownRepairSuggestion = repair.ErrUnknownSuggestion

// WatchRepairs attaches a live repair suggester to a monitor: the
// current violation set is planned once, and every subsequent
// ChangeSet's marked keys and groups re-plan only the suggestions it
// touched —
// call Refresh after applying changes to fold them in, Suggestions for
// the current cost-ranked set, Plan to turn accepted suggestion IDs into
// an ordinary ChangeSet. Detach with RepairSuggester.Close. The cfdserve
// /v1/repairs endpoints serve this path over HTTP; cmd/cfdrepair is the
// batch CLI over Repair instead.
func WatchRepairs(m *Monitor, opts SuggestOptions) (*RepairSuggester, error) {
	return repair.NewSuggester(m, opts)
}
