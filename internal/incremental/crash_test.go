package incremental_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/incremental"
	"repro/internal/relation"
	"repro/internal/wal"
)

// The kill-and-recover property test: drive a durable monitor through a
// random mutation stream (with a mid-stream snapshot, so recovery crosses
// a generation boundary), then simulate crashes by truncating the live
// log segment at arbitrary byte offsets — exact record boundaries and
// torn mid-record writes alike. After every simulated crash the recovered
// monitor must
//
//  1. agree byte-for-byte with the batch Direct detector run over the
//     surviving tuples (internal-consistency: the rebuilt indexes are
//     exactly what full re-evaluation would produce), and
//  2. equal the mirror state as of the last record boundary at or before
//     the cut (no lost acknowledged prefix, no phantom tail).

// copyDir clones a WAL directory into a fresh crash image.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashRecoveryAckedWithoutFsync: without Options.Fsync an
// acknowledged ChangeSet has still reached the OS, so a process killed
// right after the ack — its directory copied as it stands, with no
// Close, Sync or snapshot — recovers it.
func TestCrashRecoveryAckedWithoutFsync(t *testing.T) {
	rel, sigma := custFixture(t)
	dir := t.TempDir()
	m, err := incremental.Load(rel, sigma, incremental.Options{Durable: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var cs incremental.ChangeSet
	cs.Insert(relation.Tuple{"01", "908", "1111111", "Eve", "Tree Ave.", "NYC", "07974"}).
		Delete(2).
		Update(0, "CT", "MH")
	if _, err := m.Apply(&cs); err != nil {
		t.Fatal(err)
	}
	img := t.TempDir()
	copyDir(t, dir, img)
	r, err := incremental.Open(sigma, incremental.Options{Durable: img})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok := r.Get(cs.Ops[0].Key); !ok || r.Len() != m.Len() {
		t.Fatalf("recovered %d tuples (inserted key %d present: %v), want %d", r.Len(), cs.Ops[0].Key, ok, m.Len())
	}
	if !r.Violations().Equal(m.Violations()) {
		t.Fatalf("recovered state diverged:\n got %v\nwant %v", describe(r.Violations()), describe(m.Violations()))
	}
}

func TestCrashRecoveryMatchesBatchDetector(t *testing.T) {
	cfg := streamConfigs(t)[0] // the cust / Figure 2 scenario
	rng := rand.New(rand.NewSource(777))
	dir := t.TempDir()

	// Fsync per record keeps the on-disk segment exact after every op, so
	// the file size after op k IS the k'th record boundary.
	m, err := incremental.New(cfg.schema, cfg.sigma, incremental.Options{
		Durable: dir, Fsync: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	mr := &mirror{m: make(map[int64]relation.Tuple)}
	randomTuple := func() relation.Tuple {
		tp := make(relation.Tuple, cfg.schema.Len())
		for i := range tp {
			pool := cfg.pools[i]
			tp[i] = pool[rng.Intn(len(pool))]
		}
		return tp
	}
	step := func() {
		op := rng.Float64()
		switch {
		case len(mr.order) == 0 || (op < 0.5 && len(mr.order) < 60):
			tp := randomTuple()
			key, _, err := m.Insert(tp)
			if err != nil {
				t.Fatal(err)
			}
			mr.m[key] = tp.Clone()
			mr.order = append(mr.order, key)
		case op < 0.75 || len(mr.order) >= 60:
			key := mr.order[rng.Intn(len(mr.order))]
			if _, err := m.Delete(key); err != nil {
				t.Fatal(err)
			}
			mr.delete(key)
		default:
			key := mr.order[rng.Intn(len(mr.order))]
			ai := rng.Intn(cfg.schema.Len())
			val := cfg.pools[ai][rng.Intn(len(cfg.pools[ai]))]
			if _, err := m.Update(key, cfg.schema.Attrs[ai].Name, val); err != nil {
				t.Fatal(err)
			}
			mr.m[key][ai] = val
		}
	}

	// Phase 1: 50 ops against the fresh generation-0 log, then a forced
	// snapshot so the crash images exercise snapshot + log-tail recovery.
	for i := 0; i < 50; i++ {
		step()
	}
	if err := m.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	segment := wal.LogPath(dir, m.JournalStats().Generation)
	if _, err := os.Stat(segment); err != nil {
		t.Fatal(err)
	}

	// Phase 2: 80 more ops; after each, record the segment size (a record
	// boundary — no-op updates append nothing, which the size dedups) and
	// the mirror image of the moment.
	type boundary struct {
		size int64
		rel  *relation.Relation
		keys []int64
	}
	snapRel, snapKeys := mr.relation(cfg.schema)
	bounds := []boundary{{size: 0, rel: snapRel.Clone(), keys: append([]int64(nil), snapKeys...)}}
	for i := 0; i < 80; i++ {
		step()
		fi, err := os.Stat(segment)
		if err != nil {
			t.Fatal(err)
		}
		rel, keys := mr.relation(cfg.schema)
		bounds = append(bounds, boundary{size: fi.Size(), rel: rel.Clone(), keys: append([]int64(nil), keys...)})
	}
	finalSize := bounds[len(bounds)-1].size
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash images: every exact record boundary, plus random mid-record
	// offsets.
	var cuts []int64
	for _, b := range bounds {
		cuts = append(cuts, b.size)
	}
	for i := 0; i < 40; i++ {
		cuts = append(cuts, rng.Int63n(finalSize+1))
	}
	for _, cut := range cuts {
		img := t.TempDir()
		copyDir(t, dir, img)
		if err := os.Truncate(filepath.Join(img, filepath.Base(segment)), cut); err != nil {
			t.Fatal(err)
		}
		rec, err := incremental.New(cfg.schema, cfg.sigma, incremental.Options{Durable: img})
		if err != nil {
			t.Fatalf("cut@%d: recovery failed: %v", cut, err)
		}
		if !rec.Recovered() {
			t.Fatalf("cut@%d: image not recognized as existing state", cut)
		}

		// (1) Internal consistency: live set == batch Direct over the
		// surviving tuples.
		oracle := oracleState(t, rec.Snapshot(), cfg.sigma, rec.Keys())
		if got := rec.Violations(); !got.Equal(oracle) {
			t.Fatalf("cut@%d: recovered live set diverges from batch detector:\ngot:\n%s\nwant:\n%s",
				cut, describe(got), describe(oracle))
		}

		// (2) Exact prefix: state equals the mirror at the last record
		// boundary at or before the cut.
		want := bounds[0]
		for _, b := range bounds {
			if b.size <= cut {
				want = b
			}
		}
		if rec.Len() != want.rel.Len() {
			t.Fatalf("cut@%d: recovered %d tuples, want %d", cut, rec.Len(), want.rel.Len())
		}
		wantState := oracleState(t, want.rel, cfg.sigma, want.keys)
		if got := rec.Violations(); !got.Equal(wantState) {
			t.Fatalf("cut@%d: recovered live set is not the boundary prefix:\ngot:\n%s\nwant:\n%s",
				cut, describe(got), describe(wantState))
		}
		for i, k := range want.keys {
			tp, ok := rec.Get(k)
			if !ok || !tp.Equal(want.rel.Tuples[i]) {
				t.Fatalf("cut@%d: tuple %d = %v, want %v", cut, k, tp, want.rel.Tuples[i])
			}
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashRecoveryBatchAllOrNothing kills the journal inside batch
// records: a ChangeSet journals as ONE framed record, so a crash
// mid-batch must replay as the whole batch or none of it — recovery can
// only ever land on a batch boundary, never between two ops of one
// ChangeSet. Every recovered image is additionally cross-checked against
// the batch Direct detector.
func TestCrashRecoveryBatchAllOrNothing(t *testing.T) {
	cfg := streamConfigs(t)[0] // the cust / Figure 2 scenario
	rng := rand.New(rand.NewSource(888))
	dir := t.TempDir()

	m, err := incremental.New(cfg.schema, cfg.sigma, incremental.Options{
		Durable: dir, Fsync: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	mr := &mirror{m: make(map[int64]relation.Tuple)}
	randomTuple := func() relation.Tuple {
		tp := make(relation.Tuple, cfg.schema.Len())
		for i := range tp {
			pool := cfg.pools[i]
			tp[i] = pool[rng.Intn(len(pool))]
		}
		return tp
	}

	// Phase 1: seed through single ops, then snapshot so the crash images
	// exercise snapshot + batched-log-tail recovery.
	for i := 0; i < 30; i++ {
		tp := randomTuple()
		key, _, err := m.Insert(tp)
		if err != nil {
			t.Fatal(err)
		}
		mr.m[key] = tp.Clone()
		mr.order = append(mr.order, key)
	}
	if err := m.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	segment := wal.LogPath(dir, m.JournalStats().Generation)

	// Phase 2: 25 multi-op ChangeSets (4–12 ops each, inserts mutated or
	// deleted later in their own batch included); every Apply with Fsync
	// lands exactly one record, so the segment size after it IS the batch
	// boundary.
	type boundary struct {
		size int64
		rel  *relation.Relation
		keys []int64
	}
	nextKey := int64(30)
	snapRel, snapKeys := mr.relation(cfg.schema)
	bounds := []boundary{{size: 0, rel: snapRel.Clone(), keys: append([]int64(nil), snapKeys...)}}
	for b := 0; b < 25; b++ {
		var cs incremental.ChangeSet
		type pend struct {
			key int64
			tp  relation.Tuple
		}
		var pending []pend
		indexOfKey := func(key int64) int {
			for i := range pending {
				if pending[i].key == key {
					return i
				}
			}
			return -1
		}
		live := func() []int64 {
			keys := append([]int64(nil), mr.order...)
			for _, p := range pending {
				keys = append(keys, p.key)
			}
			return keys
		}
		for o, nops := 0, 4+rng.Intn(9); o < nops; o++ {
			keys := live()
			op := rng.Float64()
			switch {
			case len(keys) == 0 || (op < 0.45 && len(keys) < 70):
				tp := randomTuple()
				cs.Insert(tp)
				pending = append(pending, pend{key: nextKey, tp: tp.Clone()})
				nextKey++
			case op < 0.70 || len(keys) >= 70:
				key := keys[rng.Intn(len(keys))]
				cs.Delete(key)
				if i := indexOfKey(key); i >= 0 {
					pending = append(pending[:i], pending[i+1:]...)
				} else {
					mr.delete(key)
				}
			default:
				key := keys[rng.Intn(len(keys))]
				ai := rng.Intn(cfg.schema.Len())
				val := cfg.pools[ai][rng.Intn(len(cfg.pools[ai]))]
				cs.Update(key, cfg.schema.Attrs[ai].Name, val)
				if i := indexOfKey(key); i >= 0 {
					pending[i].tp[ai] = val
				} else {
					mr.m[key][ai] = val
				}
			}
		}
		for _, p := range pending {
			mr.m[p.key] = p.tp
			mr.order = append(mr.order, p.key)
		}
		if _, err := m.Apply(&cs); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		fi, err := os.Stat(segment)
		if err != nil {
			t.Fatal(err)
		}
		rel, keys := mr.relation(cfg.schema)
		bounds = append(bounds, boundary{size: fi.Size(), rel: rel.Clone(), keys: append([]int64(nil), keys...)})
	}
	finalSize := bounds[len(bounds)-1].size
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash images: every batch boundary plus random offsets — most land
	// INSIDE a batch record, the case this test exists for.
	var cuts []int64
	for _, b := range bounds {
		cuts = append(cuts, b.size)
	}
	for i := 0; i < 60; i++ {
		cuts = append(cuts, rng.Int63n(finalSize+1))
	}
	for _, cut := range cuts {
		img := t.TempDir()
		copyDir(t, dir, img)
		if err := os.Truncate(filepath.Join(img, filepath.Base(segment)), cut); err != nil {
			t.Fatal(err)
		}
		rec, err := incremental.New(cfg.schema, cfg.sigma, incremental.Options{Durable: img})
		if err != nil {
			t.Fatalf("cut@%d: recovery failed: %v", cut, err)
		}

		// All-or-nothing: the recovered state must be EXACTLY the mirror
		// at the last batch boundary at or before the cut — a partially
		// applied batch would land between boundaries and diverge.
		want := bounds[0]
		for _, b := range bounds {
			if b.size <= cut {
				want = b
			}
		}
		if rec.Len() != want.rel.Len() {
			t.Fatalf("cut@%d: recovered %d tuples, want %d (torn batch partially applied?)",
				cut, rec.Len(), want.rel.Len())
		}
		for i, k := range want.keys {
			tp, ok := rec.Get(k)
			if !ok || !tp.Equal(want.rel.Tuples[i]) {
				t.Fatalf("cut@%d: tuple %d = %v, want %v", cut, k, tp, want.rel.Tuples[i])
			}
		}
		wantState := oracleState(t, want.rel, cfg.sigma, want.keys)
		if got := rec.Violations(); !got.Equal(wantState) {
			t.Fatalf("cut@%d: recovered live set is not the batch-boundary prefix:\ngot:\n%s\nwant:\n%s",
				cut, describe(got), describe(wantState))
		}
		// Internal consistency against the batch detector.
		oracle := oracleState(t, rec.Snapshot(), cfg.sigma, rec.Keys())
		if got := rec.Violations(); !got.Equal(oracle) {
			t.Fatalf("cut@%d: recovered live set diverges from batch detector:\ngot:\n%s\nwant:\n%s",
				cut, describe(got), describe(oracle))
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
