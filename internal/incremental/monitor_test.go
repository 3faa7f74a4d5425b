package incremental_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/incremental"
	"repro/internal/relation"
)

// custFixture returns the paper's Figure 1 instance and Figure 2 CFDs.
func custFixture(t testing.TB) (*relation.Relation, []*core.CFD) {
	t.Helper()
	schema := relation.MustSchema("cust",
		relation.Attr("CC"), relation.Attr("AC"), relation.Attr("PN"),
		relation.Attr("NM"), relation.Attr("STR"), relation.Attr("CT"), relation.Attr("ZIP"))
	rel := relation.New(schema)
	for _, tp := range [][]string{
		{"01", "908", "1111111", "Mike", "Tree Ave.", "NYC", "07974"},
		{"01", "908", "1111111", "Rick", "Tree Ave.", "NYC", "07974"},
		{"01", "212", "2222222", "Joe", "Elm Str.", "NYC", "01202"},
		{"01", "212", "2222222", "Jim", "Elm Str.", "NYC", "02404"},
		{"01", "215", "3333333", "Ben", "Oak Ave.", "PHI", "02394"},
		{"44", "131", "4444444", "Ian", "High St.", "EDI", "EH4 1DT"},
	} {
		rel.MustInsert(tp...)
	}
	sigma, err := core.ParseSet(`
[CC=44, ZIP] -> [STR]
[CC, AC, PN] -> [STR, CT, ZIP]
[CC=01, AC=908, PN] -> [STR, CT=MH, ZIP]
[CC=01, AC=212, PN] -> [STR, CT=NYC, ZIP]
[CC, AC] -> [CT]
[CC=01, AC=215] -> [CT=PHI]
[CC=44, AC=141] -> [CT=GLA]
`)
	if err != nil {
		t.Fatal(err)
	}
	return rel, sigma
}

// oracleState runs the batch Direct detector over rel and maps its row-id
// results onto the given monitor keys (keys[row] is row's key).
func oracleState(t testing.TB, rel *relation.Relation, sigma []*core.CFD, keys []int64) *incremental.State {
	t.Helper()
	res, err := detect.Detect(rel, sigma, detect.Options{Strategy: detect.Direct})
	if err != nil {
		t.Fatal(err)
	}
	st := &incremental.State{PerCFD: make([]incremental.CFDViolations, len(res.PerCFD))}
	for i, v := range res.PerCFD {
		var cv incremental.CFDViolations
		for _, row := range v.ConstTuples {
			cv.ConstTuples = append(cv.ConstTuples, keys[row])
		}
		for _, k := range v.VariableKeys {
			cv.VariableKeys = append(cv.VariableKeys, append([]relation.Value(nil), k...))
		}
		st.PerCFD[i] = cv
	}
	return st
}

func identityKeys(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

func describe(st *incremental.State) string {
	s := ""
	for i, v := range st.PerCFD {
		s += fmt.Sprintf("cfd %d: const=%v vars=%v\n", i, v.ConstTuples, v.VariableKeys)
	}
	return s
}

// TestLoadMatchesBatchDetector: after Load, the live violation set equals a
// fresh batch run (keys coincide with row ids on the initial load).
func TestLoadMatchesBatchDetector(t *testing.T) {
	rel, sigma := custFixture(t)
	m, err := incremental.Load(rel, sigma, incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := oracleState(t, rel, sigma, identityKeys(rel.Len()))
	got := m.Violations()
	if !got.Equal(want) {
		t.Fatalf("monitor disagrees with batch detector after Load:\ngot:\n%s\nwant:\n%s", describe(got), describe(want))
	}
	if m.Satisfied() {
		t.Fatal("Figure 1 instance should violate Σ")
	}
	if m.ViolationCount() != int64(want.Total()) {
		t.Fatalf("ViolationCount = %d, want %d", m.ViolationCount(), want.Total())
	}
	if m.Len() != rel.Len() {
		t.Fatalf("Len = %d, want %d", m.Len(), rel.Len())
	}
	snap := m.Snapshot()
	for i, tp := range rel.Tuples {
		if !snap.Tuples[i].Equal(tp) {
			t.Fatalf("Snapshot row %d = %v, want %v", i, snap.Tuples[i], tp)
		}
	}
}

// TestInsertDeltas walks hand-computed deltas on a two-attribute schema
// with a mixed tableau (one wildcard FD row, one fully-constant row).
func TestInsertDeltas(t *testing.T) {
	schema := relation.MustSchema("T", relation.Attr("A"), relation.Attr("B"))
	cfd := core.MustCFD([]string{"A"}, []string{"B"},
		core.PatternRow{X: []core.Pattern{core.W()}, Y: []core.Pattern{core.W()}},
		core.PatternRow{X: []core.Pattern{core.C("1")}, Y: []core.Pattern{core.C("x")}},
	)
	m, err := incremental.New(schema, []*core.CFD{cfd}, incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// (1, x): matches both rows, no conflict.
	k0, d, err := m.Insert(relation.Tuple{"1", "x"})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Fatalf("clean insert produced delta %+v", d)
	}

	// (1, y): constant violation against row 2, and the A=1 group now
	// disagrees on B — two new violations in one delta.
	k1, d, err := m.Insert(relation.Tuple{"1", "y"})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Added) != 2 || len(d.Removed) != 0 {
		t.Fatalf("dirty insert delta = %+v, want 2 added", d)
	}
	var haveConst, haveVar bool
	for _, c := range d.Added {
		switch c.Kind {
		case core.ConstViolation:
			haveConst = c.Tuple == k1
		case core.VariableViolation:
			haveVar = len(c.Key) == 1 && c.Key[0] == "1"
		}
	}
	if !haveConst || !haveVar {
		t.Fatalf("delta misses expected changes: %+v", d)
	}
	if m.Satisfied() || m.ViolationCount() != 2 {
		t.Fatalf("expected 2 live violations, have %d", m.ViolationCount())
	}

	// Fixing B back to x retires both violations.
	d, err = m.Update(k1, "B", "x")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Added) != 0 || len(d.Removed) != 2 {
		t.Fatalf("repair delta = %+v, want 2 removed", d)
	}
	if !m.Satisfied() {
		t.Fatal("instance should be clean after repair")
	}

	// No-op update produces an empty delta.
	d, err = m.Update(k1, "B", "x")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Fatalf("no-op update produced delta %+v", d)
	}

	// Deleting one member of a clean group changes nothing.
	d, err = m.Delete(k0)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Fatalf("clean delete produced delta %+v", d)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

// TestUpdateMovesGroups: updating an LHS attribute moves the tuple between
// groups, retiring the old group's violation and possibly creating one in
// the new group.
func TestUpdateMovesGroups(t *testing.T) {
	schema := relation.MustSchema("T", relation.Attr("A"), relation.Attr("B"))
	cfd := core.MustCFD([]string{"A"}, []string{"B"},
		core.PatternRow{X: []core.Pattern{core.W()}, Y: []core.Pattern{core.W()}})
	m, err := incremental.New(schema, []*core.CFD{cfd}, incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, _ = m.Insert(relation.Tuple{"g1", "x"})
	k1, _, _ := m.Insert(relation.Tuple{"g1", "y"}) // g1 violates
	_, _, _ = m.Insert(relation.Tuple{"g2", "x"})
	if m.ViolationCount() != 1 {
		t.Fatalf("want 1 violation, have %d", m.ViolationCount())
	}
	// Move the disagreeing tuple into g2: g1 heals, g2 breaks.
	d, err := m.Update(k1, "A", "g2")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Added) != 1 || len(d.Removed) != 1 {
		t.Fatalf("move delta = %+v, want 1 added + 1 removed", d)
	}
	if d.Added[0].Key[0] != "g2" || d.Removed[0].Key[0] != "g1" {
		t.Fatalf("move delta keys wrong: %+v", d)
	}
	if m.ViolationCount() != 1 {
		t.Fatalf("want 1 violation after move, have %d", m.ViolationCount())
	}
}

// TestErrors covers the rejection paths: arity, domains, unknown keys and
// attributes, invalid Σ.
func TestErrors(t *testing.T) {
	schema := relation.MustSchema("T",
		relation.Attribute{Name: "A", Domain: relation.Bool()}, relation.Attr("B"))
	cfd := core.MustCFD([]string{"A"}, []string{"B"},
		core.PatternRow{X: []core.Pattern{core.W()}, Y: []core.Pattern{core.W()}})
	m, err := incremental.New(schema, []*core.CFD{cfd}, incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Insert(relation.Tuple{"true"}); err == nil {
		t.Error("arity violation accepted")
	}
	if _, _, err := m.Insert(relation.Tuple{"maybe", "b"}); err == nil {
		t.Error("domain violation accepted")
	}
	if _, err := m.Delete(99); err == nil {
		t.Error("deleting unknown key succeeded")
	}
	if _, err := m.Update(99, "B", "b"); err == nil {
		t.Error("updating unknown key succeeded")
	}
	k, _, err := m.Insert(relation.Tuple{"true", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Update(k, "C", "x"); err == nil {
		t.Error("updating unknown attribute succeeded")
	}
	if _, err := m.Update(k, "A", "maybe"); err == nil {
		t.Error("update outside domain succeeded")
	}
	if _, ok := m.Get(k); !ok {
		t.Error("Get lost the tuple")
	}
	if _, ok := m.Get(99); ok {
		t.Error("Get invented a tuple")
	}
	// Σ referencing a missing attribute is rejected at construction.
	bad := core.MustCFD([]string{"Z"}, []string{"B"},
		core.PatternRow{X: []core.Pattern{core.W()}, Y: []core.Pattern{core.W()}})
	if _, err := incremental.New(schema, []*core.CFD{bad}, incremental.Options{}); err == nil {
		t.Error("invalid Σ accepted")
	}
}

// TestInconsistentSigmaRefused: a monitor refuses the paper's Example 3.1
// sets — ψ1 = ([A] → [B], {(_, b), (_, c)}) alone, and ψ2, ψ3 jointly
// over dom(A) = bool — and the error names exactly the conflicting CFDs,
// not the consistent bystanders beside them. Over an unbounded dom(A)
// the same Σ is consistent and boots.
func TestInconsistentSigmaRefused(t *testing.T) {
	row := func(x, y core.Pattern) core.PatternRow {
		return core.PatternRow{X: []core.Pattern{x}, Y: []core.Pattern{y}}
	}
	bystanderAC := core.MustCFD([]string{"A"}, []string{"C"}, row(core.W(), core.W()))
	bystanderCB := core.MustCFD([]string{"C"}, []string{"B"}, row(core.W(), core.W()))
	psi1 := core.MustCFD([]string{"A"}, []string{"B"}, row(core.W(), core.C("b")), row(core.W(), core.C("c")))
	psi2 := core.MustCFD([]string{"A"}, []string{"B"}, row(core.C("true"), core.C("b1")), row(core.C("false"), core.C("b2")))
	psi3 := core.MustCFD([]string{"B"}, []string{"A"}, row(core.C("b1"), core.C("false")), row(core.C("b2"), core.C("true")))
	boolA := relation.MustSchema("R",
		relation.Attribute{Name: "A", Domain: relation.Bool()}, relation.Attr("B"), relation.Attr("C"))
	for _, c := range []struct {
		name     string
		sigma    []*core.CFD
		conflict []int
	}{
		{"ψ1", []*core.CFD{bystanderAC, psi1, bystanderCB}, []int{1}},
		{"ψ2 and ψ3 over bool", []*core.CFD{bystanderAC, psi2, bystanderCB, psi3}, []int{1, 3}},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, errNew := incremental.New(boolA, c.sigma, incremental.Options{})
			_, errLoad := incremental.Load(relation.New(boolA), c.sigma, incremental.Options{})
			for _, err := range []error{errNew, errLoad} {
				if err == nil {
					t.Fatal("inconsistent Σ accepted")
				}
				for i := range c.sigma {
					named := strings.Contains(err.Error(), fmt.Sprintf("CFD %d (", i))
					if want := slices.Contains(c.conflict, i); named != want {
						t.Errorf("CFD %d named = %v, want %v: %v", i, named, want, err)
					}
				}
			}
		})
	}
	unbounded := relation.MustSchema("R", relation.Attr("A"), relation.Attr("B"), relation.Attr("C"))
	m, err := incremental.New(unbounded, []*core.CFD{bystanderAC, psi2, bystanderCB, psi3}, incremental.Options{})
	if err != nil {
		t.Fatalf("ψ2, ψ3 over an unbounded dom(A) refused: %v", err)
	}
	m.Close()
}

// TestConcurrentReadersAndWriters hammers the monitor from parallel
// writers while readers snapshot continuously, then cross-checks the final
// state against the batch oracle. Run with -race to exercise the store
// lock.
func TestConcurrentReadersAndWriters(t *testing.T) {
	rel, sigma := custFixture(t)
	m, err := incremental.Load(rel, sigma, incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const writers, opsPerWriter = 4, 200
	var readerWG, writerWG sync.WaitGroup
	stop := make(chan struct{})
	// Readers: snapshot and Satisfied in a tight loop until writers finish.
	for r := 0; r < 2; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = m.Violations()
					_ = m.Satisfied()
				}
			}
		}()
	}
	// Writers: each inserts its own tuples, updates them, deletes half.
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			var keys []int64
			for i := 0; i < opsPerWriter; i++ {
				k, _, err := m.Insert(relation.Tuple{
					"01", "908", fmt.Sprintf("p%d-%d", w, i), "N", "S", "CT", "Z"})
				if err != nil {
					errs <- err
					return
				}
				keys = append(keys, k)
				if _, err := m.Update(k, "CT", fmt.Sprintf("c%d", i%3)); err != nil {
					errs <- err
					return
				}
			}
			for i, k := range keys {
				if i%2 == 0 {
					if _, err := m.Delete(k); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	// Final state must equal a batch run over the surviving tuples.
	keys := m.Keys()
	snap := m.Snapshot()
	want := oracleState(t, snap, sigma, keys)
	got := m.Violations()
	if !got.Equal(want) {
		t.Fatalf("final state diverges from batch detector:\ngot:\n%s\nwant:\n%s", describe(got), describe(want))
	}
}

// TestConcurrentSameKeyUpdates: writers racing on the SAME key must
// serialize as whole operations — interleaved remove/add index passes
// would leave phantom Y-values in the group distributions. Regression test
// for a bug where the tuple-store lock was dropped before index
// maintenance, permanently corrupting the live set.
func TestConcurrentSameKeyUpdates(t *testing.T) {
	rel, sigma := custFixture(t)
	for round := 0; round < 20; round++ {
		m, err := incremental.Load(rel, sigma, incremental.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if _, err := m.Update(0, "CT", fmt.Sprintf("city-%d-%d", w, i)); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		// Heal sequentially: put key 0 back to its original values.
		if _, err := m.Update(0, "CT", "NYC"); err != nil {
			t.Fatal(err)
		}
		keys := m.Keys()
		want := oracleState(t, m.Snapshot(), sigma, keys)
		got := m.Violations()
		if !got.Equal(want) {
			t.Fatalf("round %d: live set diverged after same-key races:\ngot:\n%s\nwant:\n%s",
				round, describe(got), describe(want))
		}
		if m.ViolationCount() != int64(want.Total()) {
			t.Fatalf("round %d: ViolationCount = %d, oracle = %d", round, m.ViolationCount(), want.Total())
		}
	}
}

// TestConcurrentUpdateDeleteSameKey: an update racing a delete of the same
// key must either fully apply before the delete or fail with "no tuple";
// either way the final state matches the oracle.
func TestConcurrentUpdateDeleteSameKey(t *testing.T) {
	rel, sigma := custFixture(t)
	for round := 0; round < 20; round++ {
		m, err := incremental.Load(rel, sigma, incremental.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				_, _ = m.Update(1, "CT", fmt.Sprintf("c%d", i)) // may fail after delete
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := m.Delete(1); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		want := oracleState(t, m.Snapshot(), sigma, m.Keys())
		got := m.Violations()
		if !got.Equal(want) {
			t.Fatalf("round %d: live set diverged after update/delete race:\ngot:\n%s\nwant:\n%s",
				round, describe(got), describe(want))
		}
	}
}
