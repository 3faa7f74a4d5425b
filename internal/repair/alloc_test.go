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
)

// TestSuggesterAttachAllocs pins the allocations of one attach —
// NewSuggester plus Close — on 4 000 generated tax rows with 5 % noise
// under the six semantic CFDs plus a 200-row, 3-attribute workload CFD
// (merged into the [ZIP, CT] tableau, as a daemon parses it), at trust
// threshold 0.9. An attach plans only the groups whose RHS has two
// values: planning every drained group, as the Suggester once did,
// measured 80 537 allocations per attach. Every tracked pair is one of
// Σ's (LHS, RHS attribute) pairs, so its partition reads the monitor's
// own CFD groups: the attach folds no tuple, and the first drain takes
// one mark per group in a single allocation per partition. Backfilling
// private partitions tuple by tuple, as TrackGroups once did for these
// pairs too, measured 37 419–37 421; the count now measures 11 893,
// mostly the drain's X per group and the plans, and the budget keeps
// about 5 % headroom. A change that moves the count edits the budget and
// says why.
func TestSuggesterAttachAllocs(t *testing.T) {
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
	defer m.Close()
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
