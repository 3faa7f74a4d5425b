//go:build !race

// Allocation budgets are deterministic where wall-clock gates are not,
// but the race detector changes how the runtime allocates, so they run
// only in plain builds.

package detect

import (
	"testing"

	"repro/internal/gen"
)

// TestFindDetailedAllocs pins FindDetailed's allocations over Σ — the six
// semantic CFDs plus a 500-row workload CFD — on 4 000 generated tax
// rows with 5 % noise. The detector allocates per group and per
// violation, never per tuple: a per-tuple projection or key encode
// multiplies the count several times over. The count moves by a few
// from run to run (map growth follows the hash seed): it measures
// 13 728–13 730, so the budget keeps about 5 % headroom. A change that
// moves the count edits the budget and says why.
func TestFindDetailedAllocs(t *testing.T) {
	data := gen.GenerateTax(gen.TaxConfig{Size: 4000, Noise: 0.05, Seed: 1})
	tpl, err := gen.TemplateByAttrs(3)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := gen.GenerateWorkloadCFD(data.Clean, gen.CFDConfig{
		Template: tpl, TabSize: 500, ConstPct: 1.0, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	sigma := append(gen.SemanticCFDs(), wl)
	const budget = 14500
	found := 0
	got := testing.AllocsPerRun(10, func() {
		found = 0
		for _, cfd := range sigma {
			vs, err := FindDetailed(data.Dirty, cfd)
			if err != nil {
				t.Fatal(err)
			}
			found += len(vs)
		}
	})
	if found == 0 {
		t.Fatal("no violations on the dirty instance")
	}
	if got > budget {
		t.Errorf("FindDetailed over Σ: %.0f allocs per run, budget %d", got, budget)
	}
}
