package discovery

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/incremental"
	"repro/internal/relation"
)

// The miner property harness: drive a Monitor-attached Miner with a
// randomized ChangeSet stream and cross-check, at checkpoints and at the
// end, that its mined set equals a from-scratch Discover over the live
// instance — oracle equivalence between the streaming path and the bulk
// seed path. Value pools are tiny so groups collide, flip between pure
// and mixed, and patterns appear and retire throughout the stream.

func minerSchema() *relation.Schema {
	return relation.MustSchema("R",
		relation.Attr("A"), relation.Attr("B"), relation.Attr("C"), relation.Attr("D"))
}

var minerPools = [][]relation.Value{
	{"a1", "a2", "a3"},
	{"b1", "b2"},
	{"c1", "c2", "c3", "c4"},
	{"d1", "d2"},
}

// minedFingerprint renders a mined set into a comparable shape.
type minedFingerprint struct {
	CFD     string
	IsFD    bool
	Support []int
}

func fingerprint(t *testing.T, ds []Discovered, err error) []minedFingerprint {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]minedFingerprint, len(ds))
	for i, d := range ds {
		out[i] = minedFingerprint{CFD: d.CFD.String(), IsFD: d.IsFD, Support: d.Support}
	}
	return out
}

// checkOracle compares the miner's current state against Discover over
// the monitor's materialized instance.
func checkOracle(t *testing.T, m *incremental.Monitor, mi *Miner, cfg Config, step int) {
	t.Helper()
	snap := m.Snapshot()
	if snap.Len() == 0 {
		return // Discover rejects empty instances by contract
	}
	wantDs, wantErr := Discover(snap, cfg)
	want := fingerprint(t, wantDs, wantErr)
	gotDs, gotErr := mi.Mined()
	got := fingerprint(t, gotDs, gotErr)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d (%d tuples): miner diverged from Discover\n got: %v\nwant: %v",
			step, snap.Len(), got, want)
	}
}

func randTuple(rng *rand.Rand) relation.Tuple {
	t := make(relation.Tuple, len(minerPools))
	for i, pool := range minerPools {
		t[i] = pool[rng.Intn(len(pool))]
	}
	return t
}

// TestMinerMatchesDiscoverOracle is the randomized equivalence property:
// a Miner driven by a random ChangeSet stream equals from-scratch
// Discover on the instance it converged to, across configs (LHS width,
// support, fractional confidence, pattern cap).
func TestMinerMatchesDiscoverOracle(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"lhs1-exact", Config{MaxLHS: 1, MinSupport: 2}},
		{"lhs2-exact", Config{MaxLHS: 2, MinSupport: 2}},
		{"lhs2-approx", Config{MaxLHS: 2, MinSupport: 3, MinConfidence: 0.7, MaxPatterns: 3}},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			m, err := incremental.New(minerSchema(), nil, incremental.Options{})
			if err != nil {
				t.Fatal(err)
			}
			mi, err := NewMiner(m, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer mi.Close()
			var live []int64
			const batches = 30
			for step := 0; step < batches; step++ {
				var cs incremental.ChangeSet
				for n := rng.Intn(12) + 4; n > 0; n-- {
					switch op := rng.Intn(10); {
					case op < 5 || len(live) == 0: // insert-heavy so the instance grows
						cs.Insert(randTuple(rng))
					case op < 7:
						i := rng.Intn(len(live))
						cs.Delete(live[i])
						live = append(live[:i], live[i+1:]...)
					default:
						key := live[rng.Intn(len(live))]
						ai := rng.Intn(len(minerPools))
						attr := m.Schema().Attrs[ai].Name
						cs.Update(key, attr, minerPools[ai][rng.Intn(len(minerPools[ai]))])
					}
				}
				if _, err := m.Apply(&cs); err != nil {
					t.Fatal(err)
				}
				for i := range cs.Ops {
					if cs.Ops[i].Kind == incremental.OpInsert {
						live = append(live, cs.Ops[i].Key)
					}
				}
				mi.Refresh()
				if step%5 == 4 || step == batches-1 {
					checkOracle(t, m, mi, tc.cfg, step)
				}
			}
		})
	}
}

// TestMinerConcurrentRefresh exercises the substrate's locking under the
// race detector: writers mutate while a reader drains and materializes,
// then a final quiescent Refresh must land exactly on the oracle.
func TestMinerConcurrentRefresh(t *testing.T) {
	cfg := Config{MaxLHS: 1, MinSupport: 2}
	m, err := incremental.New(minerSchema(), nil, incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mi, err := NewMiner(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mi.Close()

	const writers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // the refreshing reader
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				mi.Refresh()
				if _, err := mi.Mined(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var werr [writers]error
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			var live []int64
			for i := 0; i < 60; i++ {
				var cs incremental.ChangeSet
				for n := rng.Intn(8) + 1; n > 0; n-- {
					if len(live) == 0 || rng.Intn(3) > 0 {
						cs.Insert(randTuple(rng))
					} else {
						i := rng.Intn(len(live))
						cs.Delete(live[i])
						live = append(live[:i], live[i+1:]...)
					}
				}
				if _, err := m.Apply(&cs); err != nil {
					werr[w] = err
					return
				}
				for i := range cs.Ops {
					if cs.Ops[i].Kind == incremental.OpInsert {
						live = append(live, cs.Ops[i].Key)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	for _, err := range werr {
		if err != nil {
			t.Fatal(err)
		}
	}
	mi.Refresh()
	checkOracle(t, m, mi, cfg, -1)
}

// TestMinerChangeStream checks the appear/retire/update deltas Refresh
// reports as a mined FD degrades into patterns and retires.
func TestMinerChangeStream(t *testing.T) {
	schema := relation.MustSchema("R", relation.Attr("AC"), relation.Attr("CT"))
	rel := relation.New(schema)
	for i := 0; i < 3; i++ {
		rel.MustInsert("908", "MH")
	}
	m, err := incremental.Load(rel, nil, incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mi, err := NewMiner(m, Config{MaxLHS: 1, MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mi.Close()

	find := func(chs []MinedChange, rhs string) *MinedChange {
		for i := range chs {
			if chs[i].RHS == rhs && len(chs[i].LHS) == 1 && chs[i].LHS[0] == "AC" {
				return &chs[i]
			}
		}
		return nil
	}

	// Seeded state: AC → CT holds as an FD (one pure group of 3).
	ds, err := mi.Mined()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) == 0 {
		t.Fatal("nothing mined from the seed")
	}

	// Breaking the group degrades the FD into pattern form... but the
	// only group is now mixed, so AC → CT retires outright.
	if _, _, err := m.Insert(relation.Tuple{"908", "NYC"}); err != nil {
		t.Fatal(err)
	}
	chs := mi.Refresh()
	ch := find(chs, "CT")
	if ch == nil || ch.Kind != MinedRetired {
		t.Fatalf("breaking the only group should retire AC → CT, got %v", chs)
	}

	// A fresh pure supported group brings it back in pattern form.
	for i := 0; i < 2; i++ {
		if _, _, err := m.Insert(relation.Tuple{"212", "NYC"}); err != nil {
			t.Fatal(err)
		}
	}
	chs = mi.Refresh()
	ch = find(chs, "CT")
	if ch == nil || ch.Kind != MinedAppeared || ch.IsFD || ch.Patterns != 1 {
		t.Fatalf("supported pure group should re-mine AC → CT as 1 pattern, got %v", chs)
	}

	// Another supported pure group: still mined, pattern count moves.
	for i := 0; i < 2; i++ {
		if _, _, err := m.Insert(relation.Tuple{"215", "PHI"}); err != nil {
			t.Fatal(err)
		}
	}
	chs = mi.Refresh()
	ch = find(chs, "CT")
	if ch == nil || ch.Kind != MinedUpdated || ch.Patterns != 2 {
		t.Fatalf("second pattern should report an update, got %v", chs)
	}

	// Quiet refresh: no changes.
	if chs := mi.Refresh(); len(chs) != 0 {
		t.Fatalf("idle refresh reported %v", chs)
	}
}

// TestMinerDynamicPruning: a superset FD is pruned while its subset
// holds, surfaces the moment the subset breaks, and is re-pruned when
// the subset heals — Discover agrees at every plateau (via the oracle
// check) and the transitions surface as appear/retire changes.
func TestMinerDynamicPruning(t *testing.T) {
	schema := relation.MustSchema("R", relation.Attr("A"), relation.Attr("B"), relation.Attr("C"))
	rel := relation.New(schema)
	// A → C holds; A,B → C therefore pruned.
	rel.MustInsert("a1", "b1", "c1")
	rel.MustInsert("a1", "b2", "c1")
	rel.MustInsert("a2", "b1", "c2")
	rel.MustInsert("a2", "b2", "c2")
	cfg := Config{MaxLHS: 2, MinSupport: 2}
	m, err := incremental.Load(rel, nil, incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mi, err := NewMiner(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mi.Close()
	checkOracle(t, m, mi, cfg, 0)
	// find reports whether LHS → C is currently mined, and in FD form.
	find := func(lhs ...string) (mined, isFD bool) {
		ds, err := mi.Mined()
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ds {
			if d.CFD.RHS[0] == "C" && reflect.DeepEqual(d.CFD.LHS, lhs) {
				return true, d.IsFD
			}
		}
		return false, false
	}
	if mined, isFD := find("A"); !mined || !isFD {
		t.Fatal("seed: want A → C mined as an FD")
	}
	if mined, _ := find("A", "B"); mined {
		t.Fatal("seed: A,B → C must be pruned under A → C")
	}

	// Break A → C: the a1 group splits on C, so the FD degrades to its
	// pattern form (the pure a2 group), and A,B → C is no longer pruned
	// — though it stays vacuous here (all (a,b) groups are singletons).
	key, _, err := m.Insert(relation.Tuple{"a1", "b3", "c9"})
	if err != nil {
		t.Fatal(err)
	}
	mi.Refresh()
	checkOracle(t, m, mi, cfg, 1)
	if mined, isFD := find("A"); !mined || isFD {
		t.Fatal("broken: want A → C demoted to pattern form")
	}

	// Heal it: the subset FD returns, the superset is pruned again.
	if _, err := m.Delete(key); err != nil {
		t.Fatal(err)
	}
	mi.Refresh()
	checkOracle(t, m, mi, cfg, 2)
	if mined, isFD := find("A"); !mined || !isFD {
		t.Fatal("healed: want A → C back as an FD")
	}
	if mined, _ := find("A", "B"); mined {
		t.Fatal("healed: A,B → C must be re-pruned")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{MinConfidence: 1.2}).Validate(); err == nil {
		t.Error("MinConfidence > 1 must be rejected")
	}
	if err := (Config{MinConfidence: math.NaN()}).Validate(); err == nil {
		t.Error("NaN MinConfidence must be rejected")
	}
	if err := (Config{MaxPatterns: -1}).Validate(); err == nil {
		t.Error("negative MaxPatterns must be rejected")
	}
	if err := (Config{MaxLHS: 2, MinSupport: 5, MinConfidence: 0.5}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	// Discover and NewMiner both refuse on entry.
	rel := relation.New(relation.MustSchema("R", relation.Attr("A"), relation.Attr("B")))
	rel.MustInsert("x", "y")
	if _, err := Discover(rel, Config{MinConfidence: 2}); err == nil {
		t.Error("Discover must validate the config")
	}
	m, err := incremental.Load(rel, nil, incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMiner(m, Config{MaxPatterns: -3}); err == nil {
		t.Error("NewMiner must validate the config")
	}
}

// TestMinerHeapPerTuple bounds what an attached Miner keeps resident:
// a MaxLHS-1 lattice over the 15-attribute tax schema (210 candidates)
// shares one X-partition per attribute across its candidates and keeps
// per-group state only for pattern rows, so it must stay under 4 KB per
// tuple (a group map per candidate plus a per-group copy in the miner
// takes ~15.7 KB here).
func TestMinerHeapPerTuple(t *testing.T) {
	const n = 10000
	td := gen.GenerateTax(gen.TaxConfig{Size: n, Noise: 0.05, Seed: 1})
	m, err := incremental.Load(td.Dirty, nil, incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}
	td = nil
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	mi, err := NewMiner(m, Config{MaxLHS: 1, MinSupport: 2, MinConfidence: 1})
	if err != nil {
		t.Fatal(err)
	}
	after := live()
	runtime.KeepAlive(mi)
	perTuple := (int64(after) - int64(before)) / n
	t.Logf("attached miner: %d B per tuple over %d tuples, %d candidates", perTuple, n, len(mi.cands))
	if perTuple > 4096 {
		t.Fatalf("attached miner holds %d B per tuple, budget 4096", perTuple)
	}
}
