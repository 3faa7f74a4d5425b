package incremental_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/incremental"
	"repro/internal/relation"
)

// bulkCase is one instance for TestBulkLoadMatchesApply: the relation
// both monitors load, Σ, and the per-attribute values the op stream
// draws from.
type bulkCase struct {
	name  string
	rel   *relation.Relation
	sigma []*core.CFD
	pools [][]relation.Value
	seed  int64
}

// columnPools lists each attribute's distinct values in rel, in first
// appearance order.
func columnPools(rel *relation.Relation) [][]relation.Value {
	pools := make([][]relation.Value, rel.Schema.Len())
	for _, tp := range rel.Tuples {
		for i, v := range tp {
			if !slices.Contains(pools[i], v) {
				pools[i] = append(pools[i], v)
			}
		}
	}
	return pools
}

func bulkCases(t *testing.T) []bulkCase {
	t.Helper()
	cust, custSigma := custFixture(t)
	tax := gen.GenerateTax(gen.TaxConfig{Size: 300, Noise: 0.1, Seed: 7})
	// The semantic CFDs are all-wildcard; the workload CFD's constant Y
	// cells give the constant-violation check something to find.
	wl, err := gen.GenerateWorkloadCFD(tax.Clean, gen.CFDConfig{Template: gen.ZipCityToState, TabSize: 40, ConstPct: 1.0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cases := []bulkCase{
		{"cust-figure1", cust, custSigma, columnPools(cust), 1},
		{"tax", tax.Dirty, append(gen.SemanticCFDs(), wl), columnPools(tax.Dirty), 2},
	}
	// TestRandomStreamsMatchOracle's scenarios, loaded with random
	// tuples over their value pools.
	for _, cfg := range streamConfigs(t) {
		rng := rand.New(rand.NewSource(cfg.seed))
		rel := relation.New(cfg.schema)
		for range 60 {
			tp := make(relation.Tuple, cfg.schema.Len())
			for i, pool := range cfg.pools {
				tp[i] = pool[rng.Intn(len(pool))]
			}
			rel.Tuples = append(rel.Tuples, tp)
		}
		cases = append(cases, bulkCase{cfg.name, rel, cfg.sigma, cfg.pools, cfg.seed})
	}
	return cases
}

// TestBulkLoadMatchesApply: Load's bulk build yields the monitor that New
// plus one Apply of the same inserts yields — the same violations
// (maintained and scanned), counters, keys and tuples, and the same
// statistics through a TrackGroups over Σ's own groups. Both then take
// one random op stream and are compared after every step, the scan
// against a fresh detect.Direct run too.
func TestBulkLoadMatchesApply(t *testing.T) {
	for _, c := range bulkCases(t) {
		t.Run(c.name, func(t *testing.T) {
			bulk, err := incremental.Load(c.rel, c.sigma, incremental.Options{})
			if err != nil {
				t.Fatal(err)
			}
			twin, err := incremental.New(c.rel.Schema, c.sigma, incremental.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var seed incremental.ChangeSet
			for _, tp := range c.rel.Tuples {
				seed.Insert(tp)
			}
			if _, err := twin.Apply(&seed); err != nil {
				t.Fatal(err)
			}
			if bulk.ViolationCount() == 0 {
				t.Fatal("instance holds no violations")
			}
			// One subscription per CFD, over its LHS and each RHS attribute:
			// every partition reads that CFD's groups.
			track := func(m *incremental.Monitor) []*incremental.GroupStats {
				var hs []*incremental.GroupStats
				for _, cfd := range c.sigma {
					var pairs []incremental.AttrPair
					for _, a := range cfd.RHS {
						pairs = append(pairs, incremental.AttrPair{X: cfd.LHS, A: a})
					}
					h, err := m.TrackGroups(pairs)
					if err != nil {
						t.Fatal(err)
					}
					hs = append(hs, h)
				}
				return hs
			}
			hb, ht := track(bulk), track(twin)
			mr := &mirror{m: make(map[int64]relation.Tuple)}
			for i, tp := range c.rel.Tuples {
				mr.m[int64(i)] = tp.Clone()
				mr.order = append(mr.order, int64(i))
			}
			sameMonitors(t, -1, c.rel.Schema, c.sigma, bulk, twin, hb, ht, mr)

			rng := rand.New(rand.NewSource(c.seed))
			randomTuple := func() relation.Tuple {
				tp := make(relation.Tuple, len(c.pools))
				for i, pool := range c.pools {
					tp[i] = pool[rng.Intn(len(pool))]
				}
				return tp
			}
			for step := range 120 {
				var ops []incremental.Op
				live := slices.Clone(mr.order)
				for n := rng.Intn(4) + 1; n > 0; n-- {
					switch op := rng.Intn(10); {
					case op < 3 || len(live) == 0:
						ops = append(ops, incremental.Op{Kind: incremental.OpInsert, Tuple: randomTuple()})
					case op < 6:
						i := rng.Intn(len(live))
						ops = append(ops, incremental.Op{Kind: incremental.OpDelete, Key: live[i]})
						live = slices.Delete(live, i, i+1)
					default:
						ai := rng.Intn(len(c.pools))
						ops = append(ops, incremental.Op{Kind: incremental.OpUpdate, Key: live[rng.Intn(len(live))],
							Attr: c.rel.Schema.Attrs[ai].Name, Value: c.pools[ai][rng.Intn(len(c.pools[ai]))]})
					}
				}
				var keys [2][]int64
				for i, m := range []*incremental.Monitor{bulk, twin} {
					cs := &incremental.ChangeSet{Ops: slices.Clone(ops)}
					if _, err := m.Apply(cs); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					for _, op := range cs.Ops {
						if op.Kind == incremental.OpInsert {
							keys[i] = append(keys[i], op.Key)
						}
					}
				}
				if !slices.Equal(keys[0], keys[1]) {
					t.Fatalf("step %d: inserted keys %v, twin %v", step, keys[0], keys[1])
				}
				for _, op := range ops {
					switch op.Kind {
					case incremental.OpInsert:
						k := keys[0][0]
						keys[0] = keys[0][1:]
						mr.m[k] = op.Tuple.Clone()
						mr.order = append(mr.order, k)
					case incremental.OpDelete:
						mr.delete(op.Key)
					case incremental.OpUpdate:
						ai, _ := c.rel.Schema.Index(op.Attr)
						mr.m[op.Key][ai] = op.Value
					}
				}
				sameMonitors(t, step, c.rel.Schema, c.sigma, bulk, twin, hb, ht, mr)
			}
		})
	}
}

// sameMonitors fails the test unless the bulk-built monitor b and its
// twin agree on every read TestBulkLoadMatchesApply compares, and b's
// scanned violations equal a batch detect.Direct run over the mirror.
func sameMonitors(t *testing.T, step int, schema *relation.Schema, sigma []*core.CFD,
	b, twin *incremental.Monitor, hb, ht []*incremental.GroupStats, mr *mirror) {
	t.Helper()
	if got, want := b.Violations(), twin.Violations(); !got.Equal(want) {
		t.Fatalf("step %d: Violations\n%s\ntwin\n%s", step, describe(got), describe(want))
	}
	rel, keys := mr.relation(schema)
	scan := b.ScanViolations()
	if want := oracleState(t, rel, sigma, keys); !scan.Equal(want) {
		t.Fatalf("step %d: ScanViolations\n%s\ndetect.Direct\n%s", step, describe(scan), describe(want))
	}
	if want := twin.ScanViolations(); !scan.Equal(want) {
		t.Fatalf("step %d: ScanViolations\n%s\ntwin\n%s", step, describe(scan), describe(want))
	}
	if b.ViolationCount() != twin.ViolationCount() || b.Len() != twin.Len() || b.NextKey() != twin.NextKey() {
		t.Fatalf("step %d: ViolationCount, Len, NextKey = %d, %d, %d; twin %d, %d, %d", step,
			b.ViolationCount(), b.Len(), b.NextKey(), twin.ViolationCount(), twin.Len(), twin.NextKey())
	}
	if !slices.Equal(b.Keys(), twin.Keys()) {
		t.Fatalf("step %d: Keys %v, twin %v", step, b.Keys(), twin.Keys())
	}
	for _, k := range b.Keys() {
		got, _ := b.Get(k)
		want, _ := twin.Get(k)
		if !got.Equal(want) || !got.Equal(mr.m[k]) {
			t.Fatalf("step %d: Get(%d) = %v, twin %v, mirror %v", step, k, got, want, mr.m[k])
		}
	}
	for ci, cfd := range sigma {
		xIdx, _ := schema.Indexes(cfd.LHS)
		for pair, a := range cfd.RHS {
			ai, _ := schema.Index(a)
			for _, k := range b.Keys() {
				tp := mr.m[k]
				x := make([]relation.Value, len(xIdx))
				for i, j := range xIdx {
					x[i] = tp[j]
				}
				kb, kt := hb[ci].KeyOf(x), ht[ci].KeyOf(x)
				sb, okb := hb[ci].Stat(pair, kb)
				st, okt := ht[ci].Stat(pair, kt)
				if !okb || !okt || !slices.Equal(sb.X, st.X) || sb.Support != st.Support ||
					sb.Distinct != st.Distinct || sb.Top != st.Top || sb.TopCount != st.TopCount {
					t.Fatalf("step %d: CFD %d pair %d Stat(%v) = %+v, %v; twin %+v, %v", step, ci, pair, x, sb, okb, st, okt)
				}
				if nb, nt := hb[ci].Count(pair, kb, tp[ai]), ht[ci].Count(pair, kt, tp[ai]); nb != nt {
					t.Fatalf("step %d: CFD %d pair %d Count(%v, %s) = %d, twin %d", step, ci, pair, x, tp[ai], nb, nt)
				}
			}
		}
	}
}
