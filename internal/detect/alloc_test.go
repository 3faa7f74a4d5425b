//go:build !race

// Allocation budgets are deterministic where wall-clock gates are not,
// but the race detector changes how the runtime allocates, so they run
// only in plain builds.

package detect

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/sqlgen"
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

// TestMergedCNFAllocs pins Detect(SQLMerged, CNF) — the paper's two
// merged queries QCΣ and QVΣ — on 500 generated tax rows with 5 % noise
// under the six semantic CFDs plus three 40-row workload CFDs. Both
// queries nested-loop every tuple against every pattern row; the
// value-ID compare allocates per query (dictionaries, ID arrays), never
// per tuple or per pair. Most of the count is QVΣ's GROUP BY, which
// allocates per group. It measures 17 798–17 799, so the budget keeps
// under 3 % headroom: one allocation per outer row adds 1 000 (500 rows,
// two queries), one per pair far more. A change that moves the count
// edits the budget and says why.
func TestMergedCNFAllocs(t *testing.T) {
	data := gen.GenerateTax(gen.TaxConfig{Size: 500, Noise: 0.05, Seed: 1})
	sigma := gen.SemanticCFDs()
	for i, tpl := range []gen.Template{gen.ZipToState, gen.ZipCityToState, gen.AreaCodeToState} {
		cfd, err := gen.GenerateWorkloadCFD(data.Clean, gen.CFDConfig{
			Template: tpl, TabSize: 40, ConstPct: 1.0, Seed: int64(3 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		sigma = append(sigma, cfd)
	}
	opts := Options{Strategy: SQLMerged, Form: sqlgen.CNF}
	const budget = 18300
	found := 0
	got := testing.AllocsPerRun(10, func() {
		res, err := Detect(data.Dirty, sigma, opts)
		if err != nil {
			t.Fatal(err)
		}
		found = 0
		for _, v := range res.PerCFD {
			found += len(v.ConstTuples) + len(v.VariableKeys)
		}
	})
	if found == 0 {
		t.Fatal("no violations on the dirty instance")
	}
	if got > budget {
		t.Errorf("Detect(SQLMerged, CNF): %.0f allocs per run, budget %d", got, budget)
	}
}
