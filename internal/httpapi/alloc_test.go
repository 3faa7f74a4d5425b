//go:build !race

// Allocation budgets are deterministic where wall-clock gates are not,
// but the race detector changes how json and sync.Pool allocate, so
// they run only in plain builds.

package httpapi

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/incremental"
)

// TestMutationPathAllocs pins the allocations of one 32-op ChangeSet
// through the serving write path — DecodeOps, Monitor.Apply,
// EncodeDelta and the JSON answer — on a memory and a durable monitor
// over 20 000 generated tax rows and the three Section 5 workload CFDs.
// The two op vectors are built once and alternate: one heals 32 of the
// generator's injected ST/CT errors, the other re-injects them, so every
// run moves the same 33 violations and has a fixed-size delta. A change
// that moves a count edits its budget and says why.
func TestMutationPathAllocs(t *testing.T) {
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
	var vecs [2][]Op
	seen := map[int]bool{}
	for _, c := range data.Changes {
		if (c.Attr != "ST" && c.Attr != "CT") || seen[c.Row] || len(seen) == 32 {
			continue
		}
		seen[c.Row] = true
		key := int64(c.Row)
		vecs[0] = append(vecs[0], Op{Op: "update", Key: &key, Attr: c.Attr, Value: c.From})
		vecs[1] = append(vecs[1], Op{Op: "update", Key: &key, Attr: c.Attr, Value: c.To})
	}
	for _, c := range []struct {
		name    string
		durable bool
		budget  float64
	}{
		{"memory", false, 185},
		{"durable", true, 225},
	} {
		t.Run(c.name, func(t *testing.T) {
			var opts incremental.Options
			if c.durable {
				opts.Durable = t.TempDir()
			}
			m, err := incremental.Load(data.Dirty, sigma, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			run := 0
			got := testing.AllocsPerRun(100, func() {
				cs, err := DecodeOps(vecs[run%2])
				if err != nil {
					t.Fatal(err)
				}
				run++
				delta, err := m.Apply(cs)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := json.Marshal(map[string]any{"delta": EncodeDelta(delta)}); err != nil {
					t.Fatal(err)
				}
			})
			if got > c.budget {
				t.Errorf("%s 32-op ChangeSet: %.0f allocs per request, budget %.0f", c.name, got, c.budget)
			}
		})
	}
}
