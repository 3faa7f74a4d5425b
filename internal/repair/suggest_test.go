package repair

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/incremental"
	"repro/internal/relation"
)

// suggestFixture builds a randomized dirty instance over a 4-attribute
// schema with two disjoint CFDs: a pure FD A → B (variable violations)
// and a pattern CFD C → D with constant rows (constant + variable
// violations). Dirt corrupts RHS cells only, so every violation is
// reachable by the suggester's RHS-edit/value-merge moves and the
// batch oracle must certify the same instance repairable.
type suggestFixture struct {
	schema *relation.Schema
	sigma  []*core.CFD
	dirty  []relation.Tuple
}

func newSuggestFixture(t *testing.T, rng *rand.Rand, n int) *suggestFixture {
	t.Helper()
	schema := relation.MustSchema("R",
		relation.Attr("A"), relation.Attr("B"),
		relation.Attr("C"), relation.Attr("D"))
	fd := core.MustCFD([]string{"A"}, []string{"B"},
		core.PatternRow{X: []core.Pattern{core.W()}, Y: []core.Pattern{core.W()}})
	const patterns = 6
	rows := make([]core.PatternRow, patterns)
	for j := 0; j < patterns; j++ {
		rows[j] = core.PatternRow{
			X: []core.Pattern{core.C(fmt.Sprintf("c%d", j))},
			Y: []core.Pattern{core.C(fmt.Sprintf("d%d", j))},
		}
	}
	pat := core.MustCFD([]string{"C"}, []string{"D"}, rows...)

	dirty := make([]relation.Tuple, n)
	for i := range dirty {
		a := rng.Intn(n / 8)
		c := rng.Intn(patterns + 2) // some C-values fall outside the tableau
		dirty[i] = relation.Tuple{
			fmt.Sprintf("a%d", a), fmt.Sprintf("b%d", a%7),
			fmt.Sprintf("c%d", c), fmt.Sprintf("d%d", c),
		}
	}
	// Corrupt ~15% of the RHS cells.
	for i := range dirty {
		if rng.Intn(100) < 15 {
			if rng.Intn(2) == 0 {
				dirty[i][1] = fmt.Sprintf("bx%d", rng.Intn(4))
			} else {
				dirty[i][3] = fmt.Sprintf("dx%d", rng.Intn(4))
			}
		}
	}
	return &suggestFixture{schema: schema, sigma: []*core.CFD{fd, pat}, dirty: dirty}
}

func (f *suggestFixture) monitor(t *testing.T) *incremental.Monitor {
	t.Helper()
	m, err := incremental.New(f.schema, f.sigma, incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(f.dirty); i += 64 {
		var cs incremental.ChangeSet
		for j := i; j < i+64 && j < len(f.dirty); j++ {
			cs.Insert(f.dirty[j])
		}
		if _, err := m.Apply(&cs); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func (f *suggestFixture) relation() *relation.Relation {
	rel := relation.New(f.schema)
	for _, tp := range f.dirty {
		rel.Tuples = append(rel.Tuples, tp.Clone())
	}
	return rel
}

// drive applies the top suggestion per round until the suggester runs
// dry, asserting the live violation count strictly decreases every
// round, and returns the number of rounds.
func drive(t *testing.T, m *incremental.Monitor, sg *Suggester) int {
	t.Helper()
	prev := m.ViolationCount()
	rounds := 0
	budget := int(prev)*4 + 16
	for {
		sg.Refresh()
		sugs := sg.Suggestions()
		if len(sugs) == 0 {
			break
		}
		if rounds++; rounds > budget {
			t.Fatalf("no convergence after %d rounds; %d violations live", rounds, m.ViolationCount())
		}
		cs, edits, err := sg.Plan([]string{sugs[0].ID})
		if err != nil {
			t.Fatal(err)
		}
		if len(edits) == 0 {
			t.Fatalf("round %d: top suggestion %q planned no edits", rounds, sugs[0].ID)
		}
		if _, err := m.Apply(cs); err != nil {
			t.Fatal(err)
		}
		cur := m.ViolationCount()
		if cur >= prev {
			t.Fatalf("round %d: violations did not decrease: %d -> %d (applied %q)", rounds, prev, cur, sugs[0].ID)
		}
		prev = cur
	}
	return rounds
}

// TestSuggestConvergesRandomDirt is the randomized-dirt convergence
// property: applying the top suggestion per round reduces the live
// violation count monotonically to zero, and the batch Repair oracle
// certifies the same dirty instance repairable.
func TestSuggestConvergesRandomDirt(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			f := newSuggestFixture(t, rand.New(rand.NewSource(seed)), 400)

			// Batch oracle on the same dirty instance.
			res, err := Repair(f.relation(), f.sigma, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Satisfied {
				t.Fatalf("batch oracle did not reach satisfaction (passes=%d)", res.Passes)
			}

			m := f.monitor(t)
			defer m.Close()
			if m.ViolationCount() == 0 {
				t.Fatal("fixture produced no violations")
			}
			sg, err := NewSuggester(m, SuggestOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer sg.Close()
			rounds := drive(t, m, sg)
			if got := m.ViolationCount(); got != 0 {
				t.Fatalf("after %d rounds: %d violations remain", rounds, got)
			}
			if !m.Satisfied() {
				t.Fatal("monitor not satisfied after convergence")
			}
			sg.Refresh()
			if left := sg.Suggestions(); len(left) != 0 {
				t.Fatalf("%d suggestions remain on a satisfied instance: %+v", len(left), left[0])
			}
		})
	}
}

// TestSuggesterTracksLiveSet checks the O(Δ) maintenance directly:
// suggestions appear when a batch introduces violations, carry concrete
// cost-ranked fixes, and retire when an unrelated-path batch repairs
// the data out from under the suggester.
func TestSuggesterTracksLiveSet(t *testing.T) {
	f := newSuggestFixture(t, rand.New(rand.NewSource(7)), 200)
	m := f.monitor(t)
	defer m.Close()
	sg, err := NewSuggester(m, SuggestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Close()
	sg.Refresh()
	before := len(sg.Suggestions())
	v0 := sg.Version()

	// A batch that forces one fresh constant violation: C in the
	// tableau, D wrong.
	var cs incremental.ChangeSet
	cs.Insert(relation.Tuple{"anew", "bnew", "c0", "dwrong"})
	if _, err := m.Apply(&cs); err != nil {
		t.Fatal(err)
	}
	if n := sg.Refresh(); n == 0 {
		t.Fatal("refresh after a violating batch re-planned nothing")
	}
	after := sg.Suggestions()
	if len(after) <= before {
		t.Fatalf("suggestion count did not grow: %d -> %d", before, len(after))
	}
	if sg.Version() == v0 {
		t.Fatal("version did not advance")
	}
	for i := 1; i < len(after); i++ {
		if after[i].Cost < after[i-1].Cost {
			t.Fatalf("suggestions not cost-ranked at %d: %f < %f", i, after[i].Cost, after[i-1].Cost)
		}
	}

	// Repair that tuple by hand; its suggestion must retire.
	key := m.NextKey() - 1
	var fix incremental.ChangeSet
	fix.Update(key, "D", "d0")
	if _, err := m.Apply(&fix); err != nil {
		t.Fatal(err)
	}
	sg.Refresh()
	for _, s := range sg.Suggestions() {
		if s.Key == key && s.Kind == SuggestRHSEdit {
			t.Fatalf("suggestion %q survived the fix", s.ID)
		}
	}
}

// TestSuggesterConcurrentRefresh hammers Refresh/Suggestions against
// concurrent writers, then quiesces and drives the instance to zero —
// the -race half of the convergence gate.
func TestSuggesterConcurrentRefresh(t *testing.T) {
	f := newSuggestFixture(t, rand.New(rand.NewSource(3)), 300)
	m := f.monitor(t)
	defer m.Close()
	sg, err := NewSuggester(m, SuggestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				var cs incremental.ChangeSet
				key := int64(rng.Intn(len(f.dirty)))
				if i%2 == 0 {
					cs.Update(key, "B", fmt.Sprintf("bx%d", rng.Intn(4)))
				} else {
					cs.Update(key, "D", fmt.Sprintf("d%d", rng.Intn(6)))
				}
				if _, err := m.Apply(&cs); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		sg.Refresh()
		_ = sg.Suggestions()
		_ = sg.Version()
	}
	close(done)
	wg.Wait()

	rounds := drive(t, m, sg)
	if got := m.ViolationCount(); got != 0 {
		t.Fatalf("after %d rounds: %d violations remain", rounds, got)
	}
}

// trustFixture is a clean instance over R(A, B, C, D) under three CFDs,
// two of them with a 2-attribute LHS: A → B, [A, C] → D, and
// [A, C] → [B, D] with a constant row. Key i holds A=a<i%10>,
// B=b<i%10>, C=c<i%3>, D=d<i%10+i%3>.
func trustFixture(t *testing.T, n int) *incremental.Monitor {
	t.Helper()
	schema := relation.MustSchema("R",
		relation.Attr("A"), relation.Attr("B"), relation.Attr("C"), relation.Attr("D"))
	sigma, err := core.ParseSet("[A] -> [B]\n[A, C] -> [D]\n[A, C] -> [B, D]\n[A=a1, C=c1] -> [B=b1, D=d2]")
	if err != nil {
		t.Fatal(err)
	}
	m, err := incremental.New(schema, sigma, incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var cs incremental.ChangeSet
	for i := 0; i < n; i++ {
		cs.Insert(relation.Tuple{fmt.Sprintf("a%d", i%10), fmt.Sprintf("b%d", i%10), fmt.Sprintf("c%d", i%3), fmt.Sprintf("d%d", i%10+i%3)})
	}
	if _, err := m.Apply(&cs); err != nil {
		t.Fatal(err)
	}
	return m
}

// scratchConfidence is a CFD's confidence counted from scratch on the
// monitor's tuples: the least, over the RHS attributes, of Σ top / Σ size
// across the LHS groups, top being a group's dominant-value count.
func scratchConfidence(m *incremental.Monitor, cfd *core.CFD) float64 {
	rel := m.Snapshot()
	worst := 1.0
	for yi := range cfd.RHS {
		if len(rel.Tuples) > 0 {
			worst = min(worst, float64(scratchAgree(rel, cfd, yi))/float64(len(rel.Tuples)))
		}
	}
	return worst
}

// scratchAgree sums, over the LHS groups of cfd in rel, the count of
// the group's dominant value of the yi-th RHS attribute.
func scratchAgree(rel *relation.Relation, cfd *core.CFD, yi int) int {
	xIdx, _ := rel.Schema.Indexes(cfd.LHS)
	ai := rel.Schema.MustIndex(cfd.RHS[yi])
	counts := make(map[string]map[relation.Value]int)
	for row, tp := range rel.Tuples {
		xk := relation.EncodeKey(rel.Project(row, xIdx))
		if counts[xk] == nil {
			counts[xk] = make(map[relation.Value]int)
		}
		counts[xk][tp[ai]]++
	}
	agree := 0
	for _, dist := range counts {
		top := 0
		for _, c := range dist {
			top = max(top, c)
		}
		agree += top
	}
	return agree
}

// assertMatchesFresh fails unless sg's live suggestions deep-equal those
// of a suggester freshly attached to the same monitor.
func assertMatchesFresh(t *testing.T, m *incremental.Monitor, sg *Suggester, opts SuggestOptions) {
	t.Helper()
	fresh, err := NewSuggester(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if got, want := sg.Suggestions(), fresh.Suggestions(); !reflect.DeepEqual(got, want) {
		t.Fatalf("live suggestions differ from a fresh attach's:\nlive  %+v\nfresh %+v", got, want)
	}
}

// TestSuggesterRelaxesLowTrustCFD checks the relative-trust loop on data
// alone: corrupting cells drives CFDs — ones with a 2-attribute LHS
// included — below the threshold, where each CFD's data edits give way
// to one relaxation suggestion carrying the confidence a from-scratch
// count gives; restoring the cells reseeds the data edits.
func TestSuggesterRelaxesLowTrustCFD(t *testing.T) {
	const n = 200
	m := trustFixture(t, n)
	defer m.Close()
	opts := SuggestOptions{TrustThreshold: 0.9}
	sg, err := NewSuggester(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Close()

	// A little dirt: every CFD loses some confidence but stays trusted.
	var dirt incremental.ChangeSet
	for k := int64(0); k < n; k += 20 {
		dirt.Update(k, "B", "bx")
		dirt.Update(k+1, "D", "dx")
	}
	if _, err := m.Apply(&dirt); err != nil {
		t.Fatal(err)
	}
	sg.Refresh()
	clean := sg.Suggestions()
	if len(clean) == 0 {
		t.Fatal("no data suggestions on a dirty instance")
	}
	for _, s := range clean {
		if s.Kind == SuggestRelax {
			t.Fatalf("relaxation %q suggested above the threshold", s.ID)
		}
	}

	// Heavy dirt on D: the CFDs with D in the RHS — both over a
	// 2-attribute LHS — drop below the threshold; A → B stays trusted.
	var heavy incremental.ChangeSet
	for k := int64(2); k < n; k += 4 {
		heavy.Update(k, "D", fmt.Sprintf("dz%d", k%3))
	}
	if _, err := m.Apply(&heavy); err != nil {
		t.Fatal(err)
	}
	sg.Refresh()
	relaxed := make(map[int]bool)
	for _, s := range sg.Suggestions() {
		if s.Kind != SuggestRelax {
			continue
		}
		relaxed[s.CFD] = true
		if want := scratchConfidence(m, m.Sigma()[s.CFD]); s.Confidence != want {
			t.Fatalf("relaxation %q carries confidence %v, from scratch %v", s.ID, s.Confidence, want)
		}
	}
	if !relaxed[1] || !relaxed[2] || relaxed[0] {
		t.Fatalf("relaxed CFDs %v, want 1 and 2, not 0", relaxed)
	}
	for _, s := range sg.Suggestions() {
		if s.Kind != SuggestRelax && relaxed[s.CFD] {
			t.Fatalf("data suggestion %q survived below the threshold", s.ID)
		}
	}
	if _, _, err := sg.Plan([]string{relaxID(1)}); err == nil {
		t.Fatal("planning a relaxation suggestion should fail")
	}

	// Undo the heavy dirt: the data edits come back as they were.
	var undo incremental.ChangeSet
	for k := int64(2); k < n; k += 4 {
		undo.Update(k, "D", fmt.Sprintf("d%d", k%10+k%3))
	}
	if _, err := m.Apply(&undo); err != nil {
		t.Fatal(err)
	}
	sg.Refresh()
	if got := sg.Suggestions(); !reflect.DeepEqual(got, clean) {
		t.Fatalf("recovery reseeded %d suggestions, want the %d from before", len(got), len(clean))
	}
}

// TestSuggesterReplansMovedConstViolation pins a constant violation that
// moves to another tableau row: its presence never flips, so the
// normalized delta is empty, yet its suggestion must follow the new row
// and one accepted plan must clear the violation.
func TestSuggesterReplansMovedConstViolation(t *testing.T) {
	schema := relation.MustSchema("R", relation.Attr("A"), relation.Attr("B"))
	sigma, err := core.ParseSet("[A=a1] -> [B=b1]\n[A=a2] -> [B=b2]")
	if err != nil {
		t.Fatal(err)
	}
	m, err := incremental.New(schema, sigma, incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, _, err := m.Insert(relation.Tuple{"a1", "bx"}); err != nil {
		t.Fatal(err)
	}
	sg, err := NewSuggester(m, SuggestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Close()
	d, err := m.Update(0, "A", "a2")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Fatalf("moving the violation between rows reported delta %+v, want empty", d)
	}
	sg.Refresh()
	assertMatchesFresh(t, m, sg, SuggestOptions{})
	cs, edits, err := sg.Plan([]string{constID(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(edits) != 1 || edits[0].To != "b2" {
		t.Fatalf("planned edits %+v, want B: bx→b2", edits)
	}
	if _, err := m.Apply(cs); err != nil {
		t.Fatal(err)
	}
	if !m.Satisfied() {
		t.Fatalf("accepted plan left violations: %+v", m.Violations().PerCFD)
	}
}

// TestSuggesterMatchesFreshAttach is the fresh-attach oracle: over seeded
// random streams of inserts, group-destroying deletes, X-updates that
// move constant violators between tableau rows and Y-updates inside
// violating groups, the live suggestions after every Refresh deep-equal
// those of a suggester freshly attached to the same instance. Σ mixes
// constant and wildcard rows and has a 2-attribute LHS; dirt and cleanup
// phases make CFDs cross the trust threshold in both directions.
func TestSuggesterMatchesFreshAttach(t *testing.T) {
	schema := relation.MustSchema("R",
		relation.Attr("A"), relation.Attr("B"), relation.Attr("C"), relation.Attr("D"), relation.Attr("E"))
	sigma, err := core.ParseSet(`[A] -> [B]
[A=a1] -> [B=b1]
[A=a2] -> [B=b2]
[A, C] -> [D]
[A=a0, C=c1] -> [D=d1]
[C=c0] -> [D=d0, E]
[C=c2] -> [D, E=e2]`)
	if err != nil {
		t.Fatal(err)
	}
	pick := func(rng *rand.Rand, prefix string, n int) string { return fmt.Sprintf("%s%d", prefix, rng.Intn(n)) }
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m, err := incremental.New(schema, sigma, incremental.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			opts := SuggestOptions{TrustThreshold: 0.8}
			sg, err := NewSuggester(m, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer sg.Close()
			var live []int64
			wasRelaxed := make(map[string]bool)
			var into, outOf int
			for step := 0; step < 150; step++ {
				dirty := step/25%2 == 0
				var cs incremental.ChangeSet
				for n := rng.Intn(4) + 1; n > 0; n-- {
					switch op := rng.Intn(10); {
					case op < 3 || len(live) < 4:
						a := pick(rng, "a", 3)
						cs.Insert(relation.Tuple{a, "b" + a[1:], pick(rng, "c", 3), pick(rng, "d", 2), pick(rng, "e", 3)})
					case op == 3:
						// Delete a tuple and, half the time, the rest of
						// its A-group: groups die.
						j := rng.Intn(len(live))
						tp, _ := m.Get(live[j])
						cs.Delete(live[j])
						live = append(live[:j], live[j+1:]...)
						if tp != nil && rng.Intn(2) == 0 {
							rest := live[:0]
							for _, k := range live {
								if o, _ := m.Get(k); o[0] == tp[0] {
									cs.Delete(k)
								} else {
									rest = append(rest, k)
								}
							}
							live = rest
						}
					case op < 6:
						// X-update: A or C moves the tuple among groups
						// and tableau rows.
						if rng.Intn(2) == 0 {
							cs.Update(live[rng.Intn(len(live))], "A", pick(rng, "a", 3))
						} else {
							cs.Update(live[rng.Intn(len(live))], "C", pick(rng, "c", 3))
						}
					default:
						// Y-update: dirt phases spread values, cleanup
						// phases restore B's canonical value and the
						// constants of D and E.
						k := live[rng.Intn(len(live))]
						tp, _ := m.Get(k)
						attr := []string{"B", "D", "E"}[rng.Intn(3)]
						val := pick(rng, strings.ToLower(attr), 4)
						if !dirty {
							val = map[string]string{"B": "b" + tp[0][1:], "D": "d0", "E": "e2"}[attr]
						}
						cs.Update(k, attr, val)
					}
				}
				if _, err := m.Apply(&cs); err != nil {
					t.Fatal(err)
				}
				for _, op := range cs.Ops {
					if op.Kind == incremental.OpInsert {
						live = append(live, op.Key)
					}
				}
				sg.Refresh()
				assertMatchesFresh(t, m, sg, opts)
				relaxed := make(map[string]bool)
				for _, s := range sg.Suggestions() {
					if s.Kind == SuggestRelax {
						relaxed[s.ID] = true
						if !wasRelaxed[s.ID] {
							into++
						}
					}
				}
				for id := range wasRelaxed {
					if !relaxed[id] {
						outOf++
					}
				}
				wasRelaxed = relaxed
			}
			if into == 0 || outOf == 0 {
				t.Fatalf("%d crossings into relaxation, %d out of it: the stream must cross both ways", into, outOf)
			}
		})
	}
}

// TestSuggesterSharedLHSMatchesFreshAttach drives a Suggester over a Σ
// whose CFDs share an LHS but no RHS attribute — [A] → [B] with a
// constant row and [A] → [C], so no one CFD's groups carry both B and C
// — through a random stream: after every Refresh its suggestions equal
// a fresh attach's, and its trust counts equal a from-scratch count of
// the snapshot, per CFD and RHS attribute.
func TestSuggesterSharedLHSMatchesFreshAttach(t *testing.T) {
	schema := relation.MustSchema("R", relation.Attr("A"), relation.Attr("B"), relation.Attr("C"))
	sigma, err := core.ParseSet("[A] -> [B]\n[A=a1] -> [B=b1]\n[A] -> [C]")
	if err != nil {
		t.Fatal(err)
	}
	pick := func(rng *rand.Rand, prefix string, n int) string { return fmt.Sprintf("%s%d", prefix, rng.Intn(n)) }
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m, err := incremental.New(schema, sigma, incremental.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			opts := SuggestOptions{TrustThreshold: 0.7}
			sg, err := NewSuggester(m, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer sg.Close()
			var live []int64
			planned := make(map[int]bool)
			for step := 0; step < 120; step++ {
				var cs incremental.ChangeSet
				for n := rng.Intn(4) + 1; n > 0; n-- {
					switch op := rng.Intn(10); {
					case op < 4 || len(live) < 4:
						a := pick(rng, "a", 3)
						cs.Insert(relation.Tuple{a, "b" + a[1:], "c" + a[1:]})
					case op < 6:
						j := rng.Intn(len(live))
						cs.Delete(live[j])
						live = append(live[:j], live[j+1:]...)
					default:
						attr := []string{"A", "B", "C"}[rng.Intn(3)]
						cs.Update(live[rng.Intn(len(live))], attr, pick(rng, strings.ToLower(attr), 3))
					}
				}
				if _, err := m.Apply(&cs); err != nil {
					t.Fatal(err)
				}
				for _, op := range cs.Ops {
					if op.Kind == incremental.OpInsert {
						live = append(live, op.Key)
					}
				}
				sg.Refresh()
				assertMatchesFresh(t, m, sg, opts)
				for _, s := range sg.Suggestions() {
					planned[s.CFD] = true
				}
				rel := m.Snapshot()
				sg.mu.Lock()
				for ci, cfd := range sigma {
					for yi := range cfd.RHS {
						a := rhsAttr{ci, yi}
						if want := scratchAgree(rel, cfd, yi); sg.agree[a] != want || sg.total[a] != len(rel.Tuples) {
							sg.mu.Unlock()
							t.Fatalf("step %d: CFD %d RHS %d agree/total %d/%d, from scratch %d/%d",
								step, ci, yi, sg.agree[a], sg.total[a], want, len(rel.Tuples))
						}
					}
				}
				sg.mu.Unlock()
			}
			if len(planned) != len(sigma) {
				t.Fatalf("suggestions named CFDs %v; the stream must dirty all %d", planned, len(sigma))
			}
		})
	}
}

// TestSuggesterConfidenceInRange reads every CFD's live confidence after
// each Refresh while 4 writers insert, delete and update: a group's
// support and dominant count come from one reading of the substrate, so
// per pair agree never exceeds total, and every confidence — a
// relaxation's included — lies in [0, 1].
func TestSuggesterConfidenceInRange(t *testing.T) {
	m := trustFixture(t, 60)
	defer m.Close()
	sg, err := NewSuggester(m, SuggestOptions{TrustThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Close()

	const writers = 4
	var wg sync.WaitGroup
	var werr [writers]error
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + w)))
			var mine []int64
			for i := 0; i < 300; i++ {
				var cs incremental.ChangeSet
				for n := rng.Intn(6) + 1; n > 0; n-- {
					switch op := rng.Intn(6); {
					case op < 3 || len(mine) == 0:
						cs.Insert(relation.Tuple{fmt.Sprintf("a%d", rng.Intn(4)), fmt.Sprintf("b%d", rng.Intn(3)), fmt.Sprintf("c%d", rng.Intn(3)), fmt.Sprintf("d%d", rng.Intn(3))})
					case op == 3:
						j := rng.Intn(len(mine))
						cs.Delete(mine[j])
						mine = append(mine[:j], mine[j+1:]...)
					default:
						attr := m.Schema().Attrs[rng.Intn(4)].Name
						cs.Update(mine[rng.Intn(len(mine))], attr, fmt.Sprintf("%s%d", strings.ToLower(attr), rng.Intn(3)))
					}
				}
				if _, err := m.Apply(&cs); err != nil {
					werr[w] = err
					return
				}
				for _, op := range cs.Ops {
					if op.Kind == incremental.OpInsert {
						mine = append(mine, op.Key)
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for reads := 0; ; reads++ {
		sg.Refresh()
		sg.mu.Lock()
		for p := range sg.agree {
			if a, n := sg.agree[p], sg.total[p]; a < 0 || a > n {
				sg.mu.Unlock()
				t.Fatalf("read %d: pair %d agree %d outside [0, total %d]", reads, p, a, n)
			}
		}
		for ci := range sg.sigma {
			if c := sg.confidence(ci); c < 0 || c > 1 {
				sg.mu.Unlock()
				t.Fatalf("read %d: CFD %d confidence %v outside [0, 1]", reads, ci, c)
			}
		}
		sg.mu.Unlock()
		for _, s := range sg.Suggestions() {
			if s.Kind == SuggestRelax && (s.Confidence < 0 || s.Confidence >= 1) {
				t.Fatalf("read %d: relaxation %q carries confidence %v outside [0, 1)", reads, s.ID, s.Confidence)
			}
		}
		select {
		case <-done:
			for _, err := range werr {
				if err != nil {
					t.Fatal(err)
				}
			}
			return
		default:
		}
	}
}

// TestSuggesterReplansWholesaleRHSRewrite pins the support clause of
// replans: a violating group (B has two values) whose constant-bound C
// is rewritten in every member within one drain window keeps its
// support, and C's delta reports one value before and after, yet the
// merge cost now counts C's cells too.
func TestSuggesterReplansWholesaleRHSRewrite(t *testing.T) {
	schema := relation.MustSchema("R", relation.Attr("A"), relation.Attr("B"), relation.Attr("C"))
	sigma, err := core.ParseSet("[A=a1] -> [B, C=c1]")
	if err != nil {
		t.Fatal(err)
	}
	m, err := incremental.New(schema, sigma, incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var seed incremental.ChangeSet
	seed.Insert(relation.Tuple{"a1", "b1", "c1"})
	seed.Insert(relation.Tuple{"a1", "b2", "c1"})
	if _, err := m.Apply(&seed); err != nil {
		t.Fatal(err)
	}
	sg, err := NewSuggester(m, SuggestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Close()
	var rewrite incremental.ChangeSet
	rewrite.Update(0, "C", "c2")
	rewrite.Update(1, "C", "c2")
	if _, err := m.Apply(&rewrite); err != nil {
		t.Fatal(err)
	}
	sg.Refresh()
	assertMatchesFresh(t, m, sg, SuggestOptions{})
}
