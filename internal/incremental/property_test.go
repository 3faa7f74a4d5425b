package incremental_test

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/incremental"
	"repro/internal/relation"
)

// The property harness: replay long randomized insert/delete/update streams
// against a Monitor and, after EVERY step, cross-check three ways:
//
//  1. the Monitor's live violation set equals a fresh batch detect.Direct
//     run over a mirror of the surviving tuples;
//  2. a violation set reconstructed purely from the emitted deltas equals
//     the live set (deltas are exact: no missed, duplicated or phantom
//     changes);
//  3. Satisfied() agrees with the oracle.
//
// Value pools are deliberately tiny so that X-groups collide constantly and
// variable violations appear and retire throughout the stream.

// streamConfig is one schema + Σ + value-pool scenario.
type streamConfig struct {
	name   string
	schema *relation.Schema
	sigma  []*core.CFD
	pools  [][]relation.Value // candidate values per attribute, in schema order
	seed   int64
	steps  int
}

func streamConfigs(t *testing.T) []streamConfig {
	t.Helper()
	// Scenario 1: the paper's cust schema with the Figure 2 CFD set —
	// multi-row tableaux mixing wildcard and constant patterns.
	cust := relation.MustSchema("cust",
		relation.Attr("CC"), relation.Attr("AC"), relation.Attr("PN"),
		relation.Attr("NM"), relation.Attr("STR"), relation.Attr("CT"), relation.Attr("ZIP"))
	custSigma, err := core.ParseSet(`
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
	custPools := [][]relation.Value{
		{"01", "44"},
		{"908", "212", "215", "141"},
		{"1111111", "2222222"},
		{"Mike", "Rick", "Joe"},
		{"Tree Ave.", "Elm Str."},
		{"MH", "NYC", "PHI", "GLA"},
		{"07974", "01202"},
	}

	// Scenario 2: finite (bool) domains — a wildcard FD plus an
	// instance-level fully-constant row over the same embedded FD.
	boolSchema := relation.MustSchema("flags",
		relation.Attribute{Name: "A", Domain: relation.Bool()},
		relation.Attribute{Name: "B", Domain: relation.Bool()})
	boolSigma := []*core.CFD{
		core.MustCFD([]string{"A"}, []string{"B"},
			core.PatternRow{X: []core.Pattern{core.W()}, Y: []core.Pattern{core.W()}}),
		core.MustCFD([]string{"A"}, []string{"B"},
			core.PatternRow{X: []core.Pattern{core.C("true")}, Y: []core.Pattern{core.C("false")}}),
	}
	boolPools := [][]relation.Value{{"true", "false"}, {"true", "false"}}

	// Scenario 3: a three-attribute schema with a mixed-mask tableau
	// (all-wildcard row, partially-constant rows) and a second CFD whose
	// LHS is the first CFD's RHS, so one update ripples through both.
	abc := relation.MustSchema("abc",
		relation.Attr("A"), relation.Attr("B"), relation.Attr("C"))
	abcSigma := []*core.CFD{
		core.MustCFD([]string{"A", "B"}, []string{"C"},
			core.PatternRow{X: []core.Pattern{core.W(), core.W()}, Y: []core.Pattern{core.W()}},
			core.PatternRow{X: []core.Pattern{core.C("a1"), core.W()}, Y: []core.Pattern{core.C("c1")}},
			core.PatternRow{X: []core.Pattern{core.W(), core.C("b2")}, Y: []core.Pattern{core.W()}},
		),
		core.MustCFD([]string{"C"}, []string{"A"},
			core.PatternRow{X: []core.Pattern{core.W()}, Y: []core.Pattern{core.W()}}),
	}
	abcPools := [][]relation.Value{
		{"a1", "a2"},
		{"b1", "b2"},
		{"c1", "c2", "c3"},
	}

	return []streamConfig{
		{name: "cust-figure2", schema: cust, sigma: custSigma, pools: custPools, seed: 101, steps: 400},
		{name: "bool-domains", schema: boolSchema, sigma: boolSigma, pools: boolPools, seed: 202, steps: 400},
		{name: "mixed-masks", schema: abc, sigma: abcSigma, pools: abcPools, seed: 303, steps: 400},
	}
}

// liveSet reconstructs the violation set from deltas alone.
type liveSet struct {
	consts []map[int64]bool
	vars   []map[string][]relation.Value
}

func newLiveSet(n int) *liveSet {
	ls := &liveSet{consts: make([]map[int64]bool, n), vars: make([]map[string][]relation.Value, n)}
	for i := 0; i < n; i++ {
		ls.consts[i] = make(map[int64]bool)
		ls.vars[i] = make(map[string][]relation.Value)
	}
	return ls
}

// apply folds a delta in, failing the test on any inexact change: adding a
// violation that is already live, or removing one that is not.
func (ls *liveSet) apply(t *testing.T, step int, d *incremental.Delta) {
	t.Helper()
	for _, c := range d.Added {
		if c.Kind == core.ConstViolation {
			if ls.consts[c.CFD][c.Tuple] {
				t.Fatalf("step %d: delta re-adds live const violation %v", step, c)
			}
			ls.consts[c.CFD][c.Tuple] = true
		} else {
			k := relation.EncodeKey(c.Key)
			if _, ok := ls.vars[c.CFD][k]; ok {
				t.Fatalf("step %d: delta re-adds live variable violation %v", step, c)
			}
			ls.vars[c.CFD][k] = append([]relation.Value(nil), c.Key...)
		}
	}
	for _, c := range d.Removed {
		if c.Kind == core.ConstViolation {
			if !ls.consts[c.CFD][c.Tuple] {
				t.Fatalf("step %d: delta removes absent const violation %v", step, c)
			}
			delete(ls.consts[c.CFD], c.Tuple)
		} else {
			k := relation.EncodeKey(c.Key)
			if _, ok := ls.vars[c.CFD][k]; !ok {
				t.Fatalf("step %d: delta removes absent variable violation %v", step, c)
			}
			delete(ls.vars[c.CFD], k)
		}
	}
}

func (ls *liveSet) state() *incremental.State {
	st := &incremental.State{PerCFD: make([]incremental.CFDViolations, len(ls.consts))}
	for i := range ls.consts {
		var cv incremental.CFDViolations
		for k := range ls.consts[i] {
			cv.ConstTuples = append(cv.ConstTuples, k)
		}
		sort.Slice(cv.ConstTuples, func(a, b int) bool { return cv.ConstTuples[a] < cv.ConstTuples[b] })
		keys := make([]string, 0, len(ls.vars[i]))
		for k := range ls.vars[i] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			cv.VariableKeys = append(cv.VariableKeys, ls.vars[i][k])
		}
		st.PerCFD[i] = cv
	}
	return st
}

// mirror is the test's independent copy of the live instance.
type mirror struct {
	order []int64
	m     map[int64]relation.Tuple
}

func (mr *mirror) relation(schema *relation.Schema) (*relation.Relation, []int64) {
	rel := relation.New(schema)
	for _, k := range mr.order {
		rel.Tuples = append(rel.Tuples, mr.m[k])
	}
	return rel, mr.order
}

func (mr *mirror) delete(key int64) {
	delete(mr.m, key)
	for i, k := range mr.order {
		if k == key {
			mr.order = append(mr.order[:i], mr.order[i+1:]...)
			return
		}
	}
}

// TestRandomStreamsMatchOracle is the main property test: ≥1k mixed steps
// across three scenarios, oracle-checked after every step.
func TestRandomStreamsMatchOracle(t *testing.T) {
	for _, cfg := range streamConfigs(t) {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(cfg.seed))
			m, err := incremental.New(cfg.schema, cfg.sigma, incremental.Options{})
			if err != nil {
				t.Fatal(err)
			}
			mr := &mirror{m: make(map[int64]relation.Tuple)}
			ls := newLiveSet(len(cfg.sigma))
			randomTuple := func() relation.Tuple {
				tp := make(relation.Tuple, cfg.schema.Len())
				for i := range tp {
					pool := cfg.pools[i]
					tp[i] = pool[rng.Intn(len(pool))]
				}
				return tp
			}
			for step := 0; step < cfg.steps; step++ {
				op := rng.Float64()
				switch {
				case len(mr.order) == 0 || (op < 0.45 && len(mr.order) < 80):
					tp := randomTuple()
					key, d, err := m.Insert(tp)
					if err != nil {
						t.Fatalf("step %d: insert: %v", step, err)
					}
					mr.m[key] = tp.Clone()
					mr.order = append(mr.order, key)
					ls.apply(t, step, d)
				case op < 0.70 || len(mr.order) >= 80:
					key := mr.order[rng.Intn(len(mr.order))]
					d, err := m.Delete(key)
					if err != nil {
						t.Fatalf("step %d: delete %d: %v", step, key, err)
					}
					mr.delete(key)
					ls.apply(t, step, d)
				default:
					key := mr.order[rng.Intn(len(mr.order))]
					ai := rng.Intn(cfg.schema.Len())
					attr := cfg.schema.Attrs[ai].Name
					val := cfg.pools[ai][rng.Intn(len(cfg.pools[ai]))]
					d, err := m.Update(key, attr, val)
					if err != nil {
						t.Fatalf("step %d: update %d.%s=%s: %v", step, key, attr, val, err)
					}
					mr.m[key][ai] = val
					ls.apply(t, step, d)
				}

				rel, keys := mr.relation(cfg.schema)
				want := oracleState(t, rel, cfg.sigma, keys)
				got := m.Violations()
				if !got.Equal(want) {
					t.Fatalf("step %d: live set diverges from batch oracle (%d tuples):\ngot:\n%s\nwant:\n%s",
						step, len(keys), describe(got), describe(want))
				}
				if fromDeltas := ls.state(); !fromDeltas.Equal(want) {
					t.Fatalf("step %d: delta-reconstructed set diverges from oracle:\ngot:\n%s\nwant:\n%s",
						step, describe(fromDeltas), describe(want))
				}
				if m.Satisfied() != want.Clean() {
					t.Fatalf("step %d: Satisfied() = %v, oracle clean = %v", step, m.Satisfied(), want.Clean())
				}
				if m.ViolationCount() != int64(want.Total()) {
					t.Fatalf("step %d: ViolationCount = %d, oracle total = %d", step, m.ViolationCount(), want.Total())
				}
			}
			if m.Len() != len(mr.order) {
				t.Fatalf("final Len = %d, mirror has %d", m.Len(), len(mr.order))
			}
		})
	}
}
