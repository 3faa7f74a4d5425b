//go:build !race

// Allocation budgets are deterministic where wall-clock gates are not,
// but the race detector changes how sync.Pool and the runtime allocate,
// so they run only in plain builds.

package incremental_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/incremental"
)

// directWorkload is root BenchmarkStrategyDirect's instance: 20 000
// generated tax rows (5 % noise) under the three Section 5 workload CFDs
// at TABSZ 500.
func directWorkload(t *testing.T) (*gen.TaxData, []*core.CFD) {
	t.Helper()
	data := gen.GenerateTax(gen.TaxConfig{Size: 20000, Noise: 0.05, Seed: 1})
	var sigma []*core.CFD
	for i, tpl := range []gen.Template{gen.ZipToState, gen.ZipCityToState, gen.AreaCodeToState} {
		cfd, err := gen.GenerateWorkloadCFD(data.Clean, gen.CFDConfig{
			Template: tpl, TabSize: 500, ConstPct: 1.0, Seed: int64(3 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		sigma = append(sigma, cfd)
	}
	return data, sigma
}

// TestLoadAllocs pins the allocations of a memory Load on
// directWorkload's instance. The bulk build measures about 15 600: about
// 14 600 of them are the constructor's (Σ's consistency check and
// tableau indexes), the rest is per-CFD arena slabs and the violating
// groups' materialized keys. A seed through one Apply made 180 061. A
// change that moves the count edits the budget and says why.
func TestLoadAllocs(t *testing.T) {
	data, sigma := directWorkload(t)
	const budget = 17000
	got := testing.AllocsPerRun(3, func() {
		if _, err := incremental.Load(data.Dirty, sigma, incremental.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Errorf("Load: %.0f allocs, budget %d", got, budget)
	}
}

// TestReadPathAllocs pins the allocations of the two read paths on
// 20 000 generated tax rows under the three Section 5 workload CFDs: a
// repeat View at an unchanged version (one atomic load, no allocation)
// and a ViolationsFor point probe of a tuple whose injected ST error
// makes it a violation. A change that moves a count edits its budget and
// says why.
func TestReadPathAllocs(t *testing.T) {
	data, sigma := directWorkload(t)
	m, err := incremental.Load(data.Dirty, sigma, incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	key := int64(-1)
	for _, c := range data.Changes {
		if c.Attr != "ST" {
			continue
		}
		if st, ok := m.ViolationsFor(int64(c.Row)); ok && !st.Clean() {
			key = int64(c.Row)
			break
		}
	}
	if key < 0 {
		t.Fatal("no injected ST error is a violation")
	}

	m.View() // build the view once; every run below is a repeat read
	for _, c := range []struct {
		name   string
		budget float64
		read   func()
	}{
		{"View", 0, func() { m.View() }},
		{"ViolationsFor", 6, func() { m.ViolationsFor(key) }},
	} {
		got := testing.AllocsPerRun(100, c.read)
		if got > c.budget {
			t.Errorf("%s: %.0f allocs per read, budget %.0f", c.name, got, c.budget)
		}
	}
}
