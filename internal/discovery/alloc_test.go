//go:build !race

// Allocation budgets are deterministic where wall-clock gates are not,
// but the race detector changes how the runtime allocates, so they run
// only in plain builds.

package discovery

import (
	"testing"

	"repro/internal/gen"
)

// TestDiscoverAllocs pins the allocations of one Discover on the root
// BenchmarkDiscovery's instance: 5 000 clean tax rows, MaxLHS 2,
// MinSupport 3. Interning the relation into columns allocates one cell
// array, one value map and a value table per column; the kernel
// allocates per partition, per scored candidate that keeps pattern rows
// and per emitted CFD — never per tuple or per group. Discovery through
// a throwaway monitor and a resident miner, as Discover once ran,
// measured 1 906 285 allocations here; IDs in sorted-value order
// measured 4 406, and first-seen IDs (no sort) now measure 4 392. The
// budget keeps about 10 % headroom. A change that moves the count edits
// the budget and says why.
func TestDiscoverAllocs(t *testing.T) {
	data := gen.GenerateTax(gen.TaxConfig{Size: 5000, Noise: 0, Seed: 19})
	const budget = 4850
	n := 0
	got := testing.AllocsPerRun(3, func() {
		ds, err := Discover(data.Clean, Config{MaxLHS: 2, MinSupport: 3})
		if err != nil {
			t.Fatal(err)
		}
		n = len(ds)
	})
	t.Logf("Discover: %.0f allocations for %d mined CFDs", got, n)
	if n == 0 {
		t.Fatal("nothing discovered")
	}
	if got > budget {
		t.Fatalf("Discover made %.0f allocations, budget %d", got, budget)
	}
}
