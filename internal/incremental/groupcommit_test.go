package incremental_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/incremental"
	"repro/internal/relation"
)

// gcOptions returns durable, fsynced options; every monitor runs its
// writers through the commit window.
func gcOptions(dir string) incremental.Options {
	return incremental.Options{
		Durable: dir,
		Fsync:   true,
	}
}

// TestGroupCommitSingleWriter: with no concurrency every window holds
// one writer, and recovery must land on exactly the live state.
func TestGroupCommitSingleWriter(t *testing.T) {
	rel, sigma := custFixture(t)
	dir := t.TempDir()
	m, err := incremental.Load(rel, sigma, gcOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	key, _, err := m.Insert(relation.Tuple{"01", "908", "1111111", "Eve", "Tree Ave.", "NYC", "07974"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Update(key, "CT", "MH"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Delete(2); err != nil {
		t.Fatal(err)
	}
	// Batches flow through the same window path.
	var cs incremental.ChangeSet
	cs.Insert(relation.Tuple{"44", "131", "5555555", "Ann", "High St.", "EDI", "EH4 1DT"})
	cs.Delete(key)
	if _, err := m.Apply(&cs); err != nil {
		t.Fatal(err)
	}
	want := m.Violations()
	wantLen := m.Len()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := incremental.Open(sigma, gcOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if m2.Len() != wantLen {
		t.Fatalf("recovered Len = %d, want %d", m2.Len(), wantLen)
	}
	if !m2.Violations().Equal(want) {
		t.Fatalf("recovered state diverged:\n got %v\nwant %v", describe(m2.Violations()), describe(want))
	}
}

// TestGroupCommitConcurrentOracle is the randomized oracle property test
// for the commit window: concurrent single-op writers (the workload
// group commit exists for) race through shared windows; afterwards the
// live violation set must equal a batch-detector run over the surviving
// tuples, and a recovery from the WAL directory must reproduce the
// monitor byte for byte — proving the combined records preserved
// log-order == apply-order across windows.
func TestGroupCommitConcurrentOracle(t *testing.T) {
	rel, sigma := custFixture(t)
	dir := t.TempDir()
	opts := gcOptions(dir)
	opts.Fsync = false // fsync is orthogonal to the window protocol; keep CI fast
	m, err := incremental.Load(rel, sigma, opts)
	if err != nil {
		t.Fatal(err)
	}
	pools := [][]relation.Value{
		{"01", "44"},
		{"908", "212", "215", "141"},
		{"1111111", "2222222"},
		{"Mike", "Rick", "Joe"},
		{"Tree Ave.", "Elm Str."},
		{"MH", "NYC", "PHI", "GLA"},
		{"07974", "01202"},
	}
	const writers = 8
	const opsPer = 60
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 7919))
			var mine []int64 // keys this writer inserted and still owns
			for i := 0; i < opsPer; i++ {
				switch {
				case len(mine) > 0 && rng.Intn(4) == 0:
					k := mine[rng.Intn(len(mine))]
					if _, err := m.Delete(k); err != nil {
						errs <- fmt.Errorf("writer %d delete: %w", w, err)
						return
					}
					for j, v := range mine {
						if v == k {
							mine = append(mine[:j], mine[j+1:]...)
							break
						}
					}
				case len(mine) > 0 && rng.Intn(3) == 0:
					k := mine[rng.Intn(len(mine))]
					if _, err := m.Update(k, "CT", pools[5][rng.Intn(len(pools[5]))]); err != nil {
						errs <- fmt.Errorf("writer %d update: %w", w, err)
						return
					}
				default:
					tp := make(relation.Tuple, len(pools))
					for j, p := range pools {
						tp[j] = p[rng.Intn(len(p))]
					}
					k, _, err := m.Insert(tp)
					if err != nil {
						errs <- fmt.Errorf("writer %d insert: %w", w, err)
						return
					}
					mine = append(mine, k)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Oracle 1: batch detector over a mirror of the surviving tuples.
	keys := m.Keys()
	mirror := relation.New(rel.Schema)
	for _, k := range keys {
		tp, ok := m.Get(k)
		if !ok {
			t.Fatalf("Keys() returned %d but Get missed", k)
		}
		mirror.MustInsert(tp...)
	}
	if want := oracleState(t, mirror, sigma, keys); !m.Violations().Equal(want) {
		t.Fatalf("live state diverged from batch oracle:\n got %v\nwant %v",
			describe(m.Violations()), describe(want))
	}

	// Oracle 2: recovery. The WAL holds one combined record per window;
	// replaying them must land on the identical state.
	want := m.Violations()
	wantLen := m.Len()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := incremental.Open(sigma, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if m2.Len() != wantLen {
		t.Fatalf("recovered Len = %d, want %d", m2.Len(), wantLen)
	}
	if !m2.Violations().Equal(want) {
		t.Fatalf("recovered state diverged:\n got %v\nwant %v", describe(m2.Violations()), describe(want))
	}
}

// TestGroupCommitPerWriterRejection: a window rejects an invalid writer
// without taking down the window's other requests, and the rejected ops
// never reach the WAL.
func TestGroupCommitPerWriterRejection(t *testing.T) {
	rel, sigma := custFixture(t)
	dir := t.TempDir()
	opts := gcOptions(dir)
	opts.Fsync = false
	m, err := incremental.Load(rel, sigma, opts)
	if err != nil {
		t.Fatal(err)
	}
	baseLen := m.Len()
	const writers = 8
	var wg sync.WaitGroup
	inserted := make([]int, writers)
	rejected := make([]int, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if w%2 == 0 {
					// Invalid: delete a key that never existed.
					if _, err := m.Delete(int64(1_000_000 + w*100 + i)); err == nil {
						return // counted below as a missing rejection
					}
					rejected[w]++
				} else {
					tp := relation.Tuple{"01", "908", "1111111", "Eve", "Tree Ave.", "NYC", "07974"}
					if _, _, err := m.Insert(tp); err != nil {
						return
					}
					inserted[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	wantInserts, wantRejects := 0, 0
	for w := 0; w < writers; w++ {
		if w%2 == 0 {
			if rejected[w] != 20 {
				t.Fatalf("writer %d: %d rejections, want 20 (a phantom delete succeeded)", w, rejected[w])
			}
			wantRejects += rejected[w]
		} else {
			if inserted[w] != 20 {
				t.Fatalf("writer %d: %d inserts succeeded, want 20", w, inserted[w])
			}
			wantInserts += inserted[w]
		}
	}
	if m.Len() != baseLen+wantInserts {
		t.Fatalf("Len = %d, want %d", m.Len(), baseLen+wantInserts)
	}
	// Rejected ops must not have been journaled: recovery sees only the
	// accepted inserts.
	want := m.Violations()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := incremental.Open(sigma, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if m2.Len() != baseLen+wantInserts {
		t.Fatalf("recovered Len = %d, want %d", m2.Len(), baseLen+wantInserts)
	}
	if !m2.Violations().Equal(want) {
		t.Fatalf("recovered state diverged:\n got %v\nwant %v", describe(m2.Violations()), describe(want))
	}
}
