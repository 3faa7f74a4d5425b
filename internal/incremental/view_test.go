package incremental_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/incremental"
	"repro/internal/relation"
)

// TestViewMatchesScanUnderRandomStreams drives the same randomized
// scenarios as the delta property test and, after every step, checks the
// O(Δ)-maintained violation view against a from-scratch scan of the
// stores. Every tenth step is a flip-flop batch — one ChangeSet that
// moves a tuple out of its group and straight back — so the view sees
// add/remove churn that nets to nothing and the test catches any state
// drift such churn would leak.
func TestViewMatchesScanUnderRandomStreams(t *testing.T) {
	for _, cfg := range streamConfigs(t) {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(cfg.seed + 7))
			m, err := incremental.New(cfg.schema, cfg.sigma, incremental.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			mirror := make(map[int64]relation.Tuple)
			var keys []int64
			randomTuple := func() relation.Tuple {
				tp := make(relation.Tuple, cfg.schema.Len())
				for i := range tp {
					pool := cfg.pools[i]
					tp[i] = pool[rng.Intn(len(pool))]
				}
				return tp
			}
			prevVer := m.ViewVersion()
			prevState := m.Violations()
			steps := cfg.steps * soakFactor()
			for step := 0; step < steps; step++ {
				op := rng.Float64()
				switch {
				case len(keys) == 0 || (op < 0.40 && len(keys) < 80):
					tp := randomTuple()
					key, _, err := m.Insert(tp)
					if err != nil {
						t.Fatalf("step %d: insert: %v", step, err)
					}
					mirror[key] = tp.Clone()
					keys = append(keys, key)
				case op < 0.55:
					i := rng.Intn(len(keys))
					key := keys[i]
					if _, err := m.Delete(key); err != nil {
						t.Fatalf("step %d: delete %d: %v", step, key, err)
					}
					delete(mirror, key)
					keys = append(keys[:i], keys[i+1:]...)
				case op < 0.65:
					// Flip-flop: out of the group and back in one batch.
					key := keys[rng.Intn(len(keys))]
					ai := rng.Intn(cfg.schema.Len())
					attr := cfg.schema.Attrs[ai].Name
					orig := mirror[key][ai]
					other := cfg.pools[ai][rng.Intn(len(cfg.pools[ai]))]
					var cs incremental.ChangeSet
					cs.Update(key, attr, other)
					cs.Update(key, attr, orig)
					if _, err := m.Apply(&cs); err != nil {
						t.Fatalf("step %d: flip-flop %d.%s: %v", step, key, attr, err)
					}
				default:
					key := keys[rng.Intn(len(keys))]
					ai := rng.Intn(cfg.schema.Len())
					attr := cfg.schema.Attrs[ai].Name
					val := cfg.pools[ai][rng.Intn(len(cfg.pools[ai]))]
					if _, err := m.Update(key, attr, val); err != nil {
						t.Fatalf("step %d: update %d.%s=%s: %v", step, key, attr, val, err)
					}
					mirror[key][ai] = val
				}

				got := m.Violations()
				want := m.ScanViolations()
				if !got.Equal(want) {
					t.Fatalf("step %d: view diverges from scan:\nview:\n%s\nscan:\n%s",
						step, describe(got), describe(want))
				}
				// The ETag contract: an unchanged version must mean an
				// unchanged violation set.
				if ver := m.ViewVersion(); ver == prevVer {
					if !got.Equal(prevState) {
						t.Fatalf("step %d: violation set changed but view version stayed %d", step, ver)
					}
				} else {
					prevVer, prevState = ver, got
				}

				// Point lookups agree with the full view for a sampled key.
				if len(keys) > 0 {
					key := keys[rng.Intn(len(keys))]
					per, ok := m.ViolationsFor(key)
					inView := false
					for ci := range got.PerCFD {
						for _, k := range got.PerCFD[ci].ConstTuples {
							if k == key {
								inView = true
							}
						}
					}
					if !ok {
						t.Fatalf("step %d: ViolationsFor(%d) reports a live key absent", step, key)
					}
					if !inView && per.Total() > 0 {
						hasConst := false
						for ci := range per.PerCFD {
							if len(per.PerCFD[ci].ConstTuples) > 0 {
								hasConst = true
							}
						}
						if hasConst {
							t.Fatalf("step %d: ViolationsFor(%d) reports a const violation the view lacks", step, key)
						}
					}
					if inView {
						hasConst := false
						for ci := range per.PerCFD {
							if len(per.PerCFD[ci].ConstTuples) > 0 {
								hasConst = true
							}
						}
						if !hasConst {
							t.Fatalf("step %d: key %d violates in view but ViolationsFor misses it", step, key)
						}
					}
				}
			}
		})
	}
}

// TestViewConcurrentReadersWriters hammers the view from reader
// goroutines while writers mutate disjoint key stripes — the shape the
// lock-free read path exists for. Run under -race this doubles as the
// data-race proof; the final state check proves the folds landed exactly
// once each despite the interleaving.
func TestViewConcurrentReadersWriters(t *testing.T) {
	cfg := streamConfigs(t)[0]
	m, err := incremental.New(cfg.schema, cfg.sigma, incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const tuples = 64
	rng := rand.New(rand.NewSource(99))
	keys := make([]int64, 0, tuples)
	for i := 0; i < tuples; i++ {
		tp := make(relation.Tuple, cfg.schema.Len())
		for a := range tp {
			tp[a] = cfg.pools[a][rng.Intn(len(cfg.pools[a]))]
		}
		key, _, err := m.Insert(tp)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}

	const (
		writers = 4
		readers = 4
	)
	opsPerWriter := 500 * soakFactor()
	var (
		writerWG sync.WaitGroup
		readerWG sync.WaitGroup
		stop     atomic.Bool
		errs     = make([]error, writers)
	)
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for i := 0; i < opsPerWriter; i++ {
				key := keys[(w+i*writers)%len(keys)]
				ai := rng.Intn(cfg.schema.Len())
				attr := cfg.schema.Attrs[ai].Name
				val := cfg.pools[ai][rng.Intn(len(cfg.pools[ai]))]
				if _, err := m.Update(key, attr, val); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	var readerFail atomic.Value
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			var lastVer uint64
			for !stop.Load() {
				st := m.Violations()
				// Touch every slice so the race detector sees the reads.
				n := 0
				for ci := range st.PerCFD {
					n += len(st.PerCFD[ci].ConstTuples) + len(st.PerCFD[ci].VariableKeys)
				}
				_ = n
				if ver := m.ViewVersion(); ver < lastVer {
					readerFail.Store("view version went backwards")
					return
				} else {
					lastVer = ver
				}
				if _, ok := m.ViolationsFor(keys[r%len(keys)]); ok {
					_ = ok
				}
			}
		}(r)
	}
	// Readers run for the writers' whole lifetime, then drain.
	writerWG.Wait()
	stop.Store(true)
	readerWG.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if msg := readerFail.Load(); msg != nil {
		t.Fatal(msg)
	}
	if got, want := m.Violations(), m.ScanViolations(); !got.Equal(want) {
		t.Fatalf("after concurrent load the view diverges from scan:\nview:\n%s\nscan:\n%s",
			describe(got), describe(want))
	}
}

// TestViolationsForSeesWholeWindows pins the point read's visibility: a
// reader sees a commit window whole or not at all. One writer moves a
// tuple back and forth between two clean states with 2-op ChangeSets —
// ZIP=z2, ST=s2 and back to ZIP=z1, ST=s1 — while each half-applied
// state puts it in a group whose other member has a different ST, a
// variable violation of [ZIP] -> [ST]. Readers hammering ViolationsFor
// on the moving key must therefore never see a violation.
func TestViolationsForSeesWholeWindows(t *testing.T) {
	schema := relation.MustSchema("R", relation.Attr("ZIP"), relation.Attr("ST"))
	sigma, err := core.ParseSet("[ZIP] -> [ST]")
	if err != nil {
		t.Fatal(err)
	}
	m, err := incremental.New(schema, sigma, incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// One fixed member per ZIP group, so the mover's intermediate states
	// always conflict.
	for _, tp := range []relation.Tuple{{"z1", "s1"}, {"z2", "s2"}} {
		if _, _, err := m.Insert(tp); err != nil {
			t.Fatal(err)
		}
	}
	key, _, err := m.Insert(relation.Tuple{"z1", "s1"})
	if err != nil {
		t.Fatal(err)
	}

	const readers = 4
	rounds := 2000 * soakFactor()
	var (
		wg   sync.WaitGroup
		stop atomic.Bool
		fail atomic.Value
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				st, ok := m.ViolationsFor(key)
				if !ok {
					fail.Store("the moving key vanished")
					return
				}
				if n := st.Total(); n != 0 {
					fail.Store(fmt.Sprintf("ViolationsFor saw %d violations mid-window: %s", n, describe(st)))
					return
				}
			}
		}()
	}
	for i := 0; i < rounds && fail.Load() == nil; i++ {
		zip, st := "z2", "s2"
		if i%2 == 1 {
			zip, st = "z1", "s1"
		}
		if _, err := m.Apply((&incremental.ChangeSet{}).Update(key, "ZIP", zip).Update(key, "ST", st)); err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if msg := fail.Load(); msg != nil {
		t.Fatal(msg)
	}
	if !m.Satisfied() {
		t.Fatalf("both endpoints are clean, yet the monitor holds %d violations", m.ViolationCount())
	}
}

// TestViewSeesWholeWindows pins the view's visibility across CFDs: a
// rebuild re-reads only the CFDs marked moved, so the marks must change
// together with the stores, or a view could pair one CFD's state before
// a window with another's after it. Three CFDs [K] -> [A], [K] -> [B],
// [K] -> [C] and one tuple that a writer walks round a cycle of states
// each violating exactly one of them — (a2, b1, c1), (a1, b2, c1),
// (a1, b1, c2) — with 2-op ChangeSets, so consecutive windows share a
// CFD and every half-applied or mixed state violates none or two.
// Readers rebuilding the view after every window must always see
// exactly one violation.
func TestViewSeesWholeWindows(t *testing.T) {
	schema := relation.MustSchema("R", relation.Attr("K"), relation.Attr("A"), relation.Attr("B"), relation.Attr("C"))
	sigma, err := core.ParseSet("[K] -> [A]\n[K] -> [B]\n[K] -> [C]")
	if err != nil {
		t.Fatal(err)
	}
	m, err := incremental.New(schema, sigma, incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, _, err := m.Insert(relation.Tuple{"k", "a1", "b1", "c1"}); err != nil {
		t.Fatal(err)
	}
	key, _, err := m.Insert(relation.Tuple{"k", "a2", "b1", "c1"})
	if err != nil {
		t.Fatal(err)
	}
	// steps[i] leaves the state violating CFD (i+1)%3 only.
	steps := []*incremental.ChangeSet{
		(&incremental.ChangeSet{}).Update(key, "A", "a1").Update(key, "B", "b2"),
		(&incremental.ChangeSet{}).Update(key, "B", "b1").Update(key, "C", "c2"),
		(&incremental.ChangeSet{}).Update(key, "C", "c1").Update(key, "A", "a2"),
	}

	const readers = 4
	rounds := 3000 * soakFactor()
	var (
		wg   sync.WaitGroup
		stop atomic.Bool
		fail atomic.Value
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if st := m.Violations(); st.Total() != 1 {
					fail.Store(fmt.Sprintf("a view holds %d violations: %s", st.Total(), describe(st)))
					return
				}
			}
		}()
	}
	for i := 0; i < rounds && fail.Load() == nil; i++ {
		if _, err := m.Apply(steps[i%len(steps)]); err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if msg := fail.Load(); msg != nil {
		t.Fatal(msg)
	}
}

// TestViewVersionMovesOnlyWithTheSet pins the ETag contract from the
// other side: the version moves when the violation set changes, and
// only then — not for an update no CFD mentions, not for a flip-flop
// batch that nets to nothing, and not for one that trades a violation's
// witness without changing the set.
func TestViewVersionMovesOnlyWithTheSet(t *testing.T) {
	schema := relation.MustSchema("R", relation.Attr("ZIP"), relation.Attr("ST"), relation.Attr("NM"))
	sigma, err := core.ParseSet("[ZIP] -> [ST]")
	if err != nil {
		t.Fatal(err)
	}
	m, err := incremental.New(schema, sigma, incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var keys []int64
	for _, tp := range []relation.Tuple{{"z1", "s1", "x"}, {"z1", "s2", "y"}, {"z1", "s2", "w"}} {
		k, _, err := m.Insert(tp)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	v0 := m.ViewVersion()
	if got := m.View().Version(); got != v0 || m.Violations().Total() != 1 {
		t.Fatalf("view version %d (counter %d), %d violations; want one violation at the counter", got, v0, m.Violations().Total())
	}
	steps := []struct {
		name string
		cs   *incremental.ChangeSet
		bump bool
	}{
		{"update no CFD mentions", (&incremental.ChangeSet{}).Update(keys[0], "NM", "z"), false},
		{"flip-flop out of the group and back", (&incremental.ChangeSet{}).Update(keys[0], "ZIP", "z9").Update(keys[0], "ZIP", "z1"), false},
		{"the group stays in conflict", (&incremental.ChangeSet{}).Update(keys[1], "ST", "s3"), false},
		{"heal the group", (&incremental.ChangeSet{}).Update(keys[0], "ST", "s2").Update(keys[1], "ST", "s2"), true},
		{"break it again", (&incremental.ChangeSet{}).Update(keys[2], "ST", "s1"), true},
	}
	for _, s := range steps {
		before := m.ViewVersion()
		if _, err := m.Apply(s.cs); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if bumped := m.ViewVersion() != before; bumped != s.bump {
			t.Fatalf("%s: version %d -> %d, want bump %v", s.name, before, m.ViewVersion(), s.bump)
		}
		if got, want := m.Violations(), m.ScanViolations(); !got.Equal(want) {
			t.Fatalf("%s: view diverges from scan:\nview:\n%s\nscan:\n%s", s.name, describe(got), describe(want))
		}
	}
}
