//go:build !race

// Allocation budgets are deterministic where wall-clock gates are not,
// but the race detector changes how the runtime allocates, so they run
// only in plain builds.

package repair

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/incremental"
	"repro/internal/relation"
)

// allocMonitor loads 4 000 generated tax rows with 5 % noise under the
// six semantic CFDs plus a 200-row, 3-attribute, all-constant workload
// CFD ([ZIP, CT] -> [ST], merged into the semantic [ZIP, CT] tableau, as
// a daemon parses it).
func allocMonitor(t *testing.T) *incremental.Monitor {
	t.Helper()
	data := gen.GenerateTax(gen.TaxConfig{Size: 4000, Noise: 0.05, Seed: 1})
	tpl, err := gen.TemplateByAttrs(3)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := gen.GenerateWorkloadCFD(data.Clean, gen.CFDConfig{
		Template: tpl, TabSize: 200, ConstPct: 1.0, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := core.ParseSet(core.FormatSet(append(gen.SemanticCFDs(), wl)))
	if err != nil {
		t.Fatal(err)
	}
	m, err := incremental.Load(data.Dirty, sigma, incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// TestSuggesterAttachAllocs pins the allocations of one attach —
// NewSuggester plus Close — on 4 000 generated tax rows with 5 % noise
// under the six semantic CFDs plus a 200-row, 3-attribute workload CFD
// (merged into the [ZIP, CT] tableau, as a daemon parses it), at trust
// threshold 0.9. An attach plans only the groups whose RHS has two
// values: planning every drained group, as the Suggester once did,
// measured 80 537 allocations per attach. The group statistics read the
// monitor's own CFD groups, one watch per CFD: the attach folds no
// tuple, and the first drain takes one mark per group in a single
// allocation per CFD. Backfilling private group stores tuple by tuple,
// as TrackGroups once did, measured 37 419–37 421; the count now
// measures 11 807, mostly the drain's X per group and the plans, and
// the budget keeps about 5 % headroom. A change that moves the count
// edits the budget and says why.
func TestSuggesterAttachAllocs(t *testing.T) {
	m := allocMonitor(t)
	const budget = 12500
	n := 0
	got := testing.AllocsPerRun(5, func() {
		sg, err := NewSuggester(m, SuggestOptions{TrustThreshold: 0.9})
		if err != nil {
			t.Fatal(err)
		}
		n = len(sg.sugs)
		sg.Close()
	})
	if n == 0 {
		t.Fatal("no suggestions on the dirty instance")
	}
	if got > budget {
		t.Errorf("NewSuggester+Close: %.0f allocs per attach, budget %d", got, budget)
	}
}

// TestSuggesterRefreshAllocs pins the allocations of one write-and-refresh
// step with a Suggester attached (trust threshold 0.9) on allocMonitor's
// instance: one 32-op ChangeSet that moves the ST of 32 clean tuples (in
// no violation) to another state, then one Refresh. Every run dirties
// its own 32 tuples: the groups of the CFDs on ST move, and the few
// tuples that match a constant row of the [ZIP, CT] CFD start violating
// it. With a touched-key subscription beside the group statistics — the
// apply recording every op's tuple before and after, and Refresh probing
// every CFD of Σ for each of the 32 keys — the step measured 1 843–1 844
// allocations. With the constant-violation key marks in the group
// statistics' watch, and one (CFD, key) re-planned per mark, it measures
// 1 465–1 466; the budget keeps about 5 % headroom.
func TestSuggesterRefreshAllocs(t *testing.T) {
	m := allocMonitor(t)
	sg, err := NewSuggester(m, SuggestOptions{TrustThreshold: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Close()
	const runs, opsPer = 5, 32
	var sets []*incremental.ChangeSet
	cs := new(incremental.ChangeSet)
	for _, k := range m.Keys() {
		if len(sets) == runs+1 { // AllocsPerRun's warm-up run takes one too
			break
		}
		if st, _ := m.ViolationsFor(k); st.Total() != 0 {
			continue
		}
		tu, _ := m.Get(k)
		to := relation.Value("NY")
		if tu[m.Schema().MustIndex("ST")] == to {
			to = "CA"
		}
		cs.Update(k, "ST", to)
		if cs.Len() == opsPer {
			sets, cs = append(sets, cs), new(incremental.ChangeSet)
		}
	}
	if len(sets) < runs+1 {
		t.Fatalf("found %d clean 32-tuple batches, want %d", len(sets), runs+1)
	}
	const budget = 1540
	replanned := 0
	got := testing.AllocsPerRun(runs, func() {
		if _, err := m.Apply(sets[0]); err != nil {
			t.Fatal(err)
		}
		sets = sets[1:]
		replanned += sg.Refresh()
	})
	if replanned == 0 {
		t.Fatal("no refresh re-planned anything")
	}
	if got > budget {
		t.Errorf("Apply+Refresh: %.0f allocs per step, budget %d", got, budget)
	}
}
