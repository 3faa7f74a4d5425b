package incremental_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/incremental"
	"repro/internal/relation"
)

// TestApplyBatchBasics: a mixed batch applies atomically, assigns insert
// keys in vector order, and returns the combined net delta.
func TestApplyBatchBasics(t *testing.T) {
	rel, sigma := custFixture(t)
	m, err := incremental.Load(rel, sigma, incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var cs incremental.ChangeSet
	cs.Insert(relation.Tuple{"01", "908", "1111111", "Eve", "Tree Ave.", "NYC", "07974"}) // breaks 908→MH and the phone group
	cs.Update(2, "CT", "MH")                                                              // breaks 212→NYC for Joe
	cs.Delete(4)
	d, err := m.Apply(&cs)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Ops[0].Key != int64(rel.Len()) {
		t.Fatalf("insert key = %d, want %d", cs.Ops[0].Key, rel.Len())
	}
	if m.Len() != rel.Len() { // +1 insert, -1 delete
		t.Fatalf("Len = %d, want %d", m.Len(), rel.Len())
	}
	// The combined delta must replay exactly onto the pre-batch oracle:
	// final live set == batch oracle over the surviving tuples.
	want := oracleState(t, m.Snapshot(), sigma, m.Keys())
	if got := m.Violations(); !got.Equal(want) {
		t.Fatalf("after batch:\ngot:\n%s\nwant:\n%s", describe(got), describe(want))
	}
	if d.Empty() {
		t.Fatal("dirty batch produced an empty delta")
	}
	// Apply does not retain the caller's tuple OR hand back its own
	// copy: mutating the ChangeSet afterwards must not reach the store.
	cs.Ops[0].Tuple[5] = "CORRUPTED"
	if got, ok := m.Get(cs.Ops[0].Key); !ok || got[5] != "NYC" {
		t.Fatalf("post-Apply ChangeSet mutation reached the monitor: %v", got)
	}
}

// TestApplyEmptyAndNil: degenerate ChangeSets are no-ops.
func TestApplyEmptyAndNil(t *testing.T) {
	rel, sigma := custFixture(t)
	m, err := incremental.Load(rel, sigma, incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d, err := m.Apply(nil); err != nil || !d.Empty() {
		t.Fatalf("Apply(nil) = %+v, %v", d, err)
	}
	if d, err := m.Apply(&incremental.ChangeSet{}); err != nil || !d.Empty() {
		t.Fatalf("Apply(empty) = %+v, %v", d, err)
	}
}

// TestApplyBatchSelfContained: a batch may insert a tuple and update or
// delete it later in the same batch — existence is simulated through the
// batch prefix.
func TestApplyBatchSelfContained(t *testing.T) {
	rel, sigma := custFixture(t)
	for _, durable := range []bool{false, true} {
		opts := incremental.Options{}
		if durable {
			opts.Durable = t.TempDir()
		}
		m, err := incremental.Load(rel, sigma, opts)
		if err != nil {
			t.Fatal(err)
		}
		var cs incremental.ChangeSet
		cs.Insert(relation.Tuple{"01", "908", "7770001", "A", "S", "MH", "07974"})
		cs.Insert(relation.Tuple{"01", "908", "7770002", "B", "S", "MH", "07974"})
		next := int64(rel.Len())
		cs.Update(next, "CT", "NYC") // breaks the first insert's 908→MH binding
		cs.Delete(next + 1)          // the second insert vanishes within the batch
		if _, err := m.Apply(&cs); err != nil {
			t.Fatalf("durable=%v: %v", durable, err)
		}
		if m.Len() != rel.Len()+1 {
			t.Fatalf("durable=%v: Len = %d, want %d", durable, m.Len(), rel.Len()+1)
		}
		if _, ok := m.Get(next + 1); ok {
			t.Fatalf("durable=%v: tuple inserted and deleted in one batch survived", durable)
		}
		want := oracleState(t, m.Snapshot(), sigma, m.Keys())
		if got := m.Violations(); !got.Equal(want) {
			t.Fatalf("durable=%v: live set diverges:\ngot:\n%s\nwant:\n%s", durable, describe(got), describe(want))
		}
		if durable {
			// The whole batch must round-trip recovery as a unit.
			wantState := m.Violations()
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			m2, err := incremental.Load(rel, sigma, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !m2.Recovered() || !m2.Violations().Equal(wantState) || m2.Len() != rel.Len()+1 {
				t.Fatalf("batch did not survive recovery: recovered=%v len=%d", m2.Recovered(), m2.Len())
			}
			// Replay seeds the segment counter in MUTATIONS, the same
			// unit afterAppend counts, so the snapshot cadence does not
			// drift across a crash: the 4-op batch is 4, not 1 record.
			if got := m2.JournalStats().SegmentRecords; got != 4 {
				t.Fatalf("recovered SegmentRecords = %d, want 4 ops", got)
			}
			m2.Close()
		}
	}
}

// TestApplyBatchAllOrNothing: an invalid op anywhere in the vector
// rejects the whole ChangeSet — nothing is applied, nothing journaled.
func TestApplyBatchAllOrNothing(t *testing.T) {
	rel, sigma := custFixture(t)
	for _, durable := range []bool{false, true} {
		opts := incremental.Options{}
		if durable {
			opts.Durable = t.TempDir()
		}
		m, err := incremental.Load(rel, sigma, opts)
		if err != nil {
			t.Fatal(err)
		}
		before := m.Violations()
		records := m.JournalStats().SegmentRecords
		cases := map[string]*incremental.ChangeSet{
			"unknown key":       (&incremental.ChangeSet{}).Insert(rel.Tuples[0].Clone()).Delete(999),
			"deleted twice":     (&incremental.ChangeSet{}).Delete(0).Delete(0),
			"update after del":  (&incremental.ChangeSet{}).Delete(1).Update(1, "CT", "MH"),
			"unknown attribute": (&incremental.ChangeSet{}).Insert(rel.Tuples[0].Clone()).Update(0, "NOPE", "x"),
			"bad arity":         (&incremental.ChangeSet{}).Update(0, "CT", "MH").Insert(relation.Tuple{"just-one"}),
		}
		for name, cs := range cases {
			if _, err := m.Apply(cs); err == nil {
				t.Errorf("durable=%v %s: batch accepted", durable, name)
			} else if !strings.Contains(err.Error(), "changeset op") {
				t.Errorf("durable=%v %s: error %q lacks op position", durable, name, err)
			}
		}
		if m.Len() != rel.Len() || !m.Violations().Equal(before) {
			t.Fatalf("durable=%v: rejected batches leaked state", durable)
		}
		if durable && m.JournalStats().SegmentRecords != records {
			t.Fatalf("durable=%v: rejected batch reached the journal", durable)
		}
		m.Close()
	}
}

// TestApplyBatchNoOpUpdateJournaled: inside an explicit batch a
// same-value update is journaled and replays as a no-op (unlike the
// single-op Update, which skips the journal entirely).
func TestApplyBatchNoOpUpdateJournaled(t *testing.T) {
	rel, sigma := custFixture(t)
	dir := t.TempDir()
	m, err := incremental.Load(rel, sigma, incremental.Options{Durable: dir})
	if err != nil {
		t.Fatal(err)
	}
	before := m.JournalStats().SegmentRecords
	if d, err := m.Update(0, "CT", rel.Tuples[0][5]); err != nil || !d.Empty() {
		t.Fatalf("single no-op update: %+v, %v", d, err)
	}
	if got := m.JournalStats().SegmentRecords; got != before {
		t.Fatalf("single no-op update journaled: %d records, want %d", got, before)
	}
	cs := (&incremental.ChangeSet{}).Update(0, "CT", rel.Tuples[0][5]).Update(1, "CT", rel.Tuples[1][5])
	if d, err := m.Apply(cs); err != nil || !d.Empty() {
		t.Fatalf("batched no-op updates: %+v, %v", d, err)
	}
	if got := m.JournalStats().SegmentRecords; got != before+2 {
		t.Fatalf("batched no-op updates: %d records, want %d", got, before+2)
	}
	want := m.Violations()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := incremental.Load(rel, sigma, incremental.Options{Durable: dir})
	if err != nil {
		t.Fatal(err) // the journaled no-ops must replay cleanly
	}
	defer m2.Close()
	if !m2.Violations().Equal(want) {
		t.Fatal("no-op records changed state on replay")
	}
}

// TestUpdateErrorPaths pins down Monitor.Update's rejection surface on
// both memory-only and durable monitors: unknown attribute, unknown key
// and type-invalid (outside-domain) values must error with stable
// messages, leave no state behind, and journal nothing.
func TestUpdateErrorPaths(t *testing.T) {
	schema := relation.MustSchema("T",
		relation.Attribute{Name: "A", Domain: relation.Bool()}, relation.Attr("B"))
	sigma, err := core.ParseSet("[A] -> [B]")
	if err != nil {
		t.Fatal(err)
	}
	for _, durable := range []bool{false, true} {
		opts := incremental.Options{}
		if durable {
			opts.Durable = t.TempDir()
		}
		m, err := incremental.New(schema, sigma, opts)
		if err != nil {
			t.Fatal(err)
		}
		key, _, err := m.Insert(relation.Tuple{"true", "b"})
		if err != nil {
			t.Fatal(err)
		}
		records := m.JournalStats().SegmentRecords
		cases := []struct {
			name       string
			key        int64
			attr, val  string
			wantSubstr string
		}{
			{"unknown attribute", key, "NOPE", "x", `has no attribute "NOPE"`},
			{"unknown key", 99, "B", "x", "no tuple with key 99"},
			{"type-invalid value", key, "A", "maybe", `value "maybe" outside domain bool`},
		}
		for _, tc := range cases {
			d, err := m.Update(tc.key, tc.attr, tc.val)
			if err == nil || !strings.Contains(err.Error(), tc.wantSubstr) {
				t.Errorf("durable=%v %s: err = %v, want %q", durable, tc.name, err, tc.wantSubstr)
			}
			if d != nil {
				t.Errorf("durable=%v %s: non-nil delta on error", durable, tc.name)
			}
		}
		if got, _ := m.Get(key); !got.Equal(relation.Tuple{"true", "b"}) {
			t.Errorf("durable=%v: failed updates modified the tuple: %v", durable, got)
		}
		if durable {
			if got := m.JournalStats().SegmentRecords; got != records {
				t.Errorf("failed updates reached the journal: %d records, want %d", got, records)
			}
		}
		// The same rejections hold inside a ChangeSet, tagged with the op
		// position.
		cs := (&incremental.ChangeSet{}).Delete(key).Update(key, "B", "x")
		if _, err := m.Apply(cs); err == nil || !strings.Contains(err.Error(), "changeset op 1") {
			t.Errorf("durable=%v: update-after-delete in batch: %v", durable, err)
		}
		m.Close()
	}
}

// TestRandomBatchesMatchOracle is the batched property test: random
// ChangeSets (1–24 ops, mixed kinds, self-referencing inserts) against
// the same three scenarios as the single-op stream test, oracle-checked
// after every batch — and, per scenario, a durable twin fed the same
// batches is killed into recovery at the end and must agree.
func TestRandomBatchesMatchOracle(t *testing.T) {
	for _, cfg := range streamConfigs(t) {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(cfg.seed + 7))
			dir := t.TempDir()
			m, err := incremental.New(cfg.schema, cfg.sigma, incremental.Options{})
			if err != nil {
				t.Fatal(err)
			}
			md, err := incremental.New(cfg.schema, cfg.sigma, incremental.Options{Durable: dir})
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
			const batches = 60
			nextKey := int64(0) // tracks the monitors' key counter exactly
			for step := 0; step < batches; step++ {
				var cs, csd incremental.ChangeSet
				// The mirror tracks the batch prefix so deletes/updates can
				// target keys inserted earlier in the same batch.
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
				nops := 1 + rng.Intn(24)
				for o := 0; o < nops; o++ {
					keys := live()
					op := rng.Float64()
					switch {
					case len(keys) == 0 || (op < 0.45 && len(keys) < 90):
						tp := randomTuple()
						cs.Insert(tp)
						csd.Insert(tp.Clone())
						pending = append(pending, pend{key: nextKey, tp: tp.Clone()})
						nextKey++
					case op < 0.70 || len(keys) >= 90:
						key := keys[rng.Intn(len(keys))]
						cs.Delete(key)
						csd.Delete(key)
						// Remove from mirror-to-be.
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
						csd.Update(key, cfg.schema.Attrs[ai].Name, val)
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
					t.Fatalf("batch %d: %v", step, err)
				}
				if _, err := md.Apply(&csd); err != nil {
					t.Fatalf("batch %d (durable): %v", step, err)
				}
				// Both monitors assigned the same insert keys.
				for i := range cs.Ops {
					if cs.Ops[i].Kind == incremental.OpInsert && cs.Ops[i].Key != csd.Ops[i].Key {
						t.Fatalf("batch %d: key divergence at op %d: %d vs %d", step, i, cs.Ops[i].Key, csd.Ops[i].Key)
					}
				}
				rel, keys := mr.relation(cfg.schema)
				want := oracleState(t, rel, cfg.sigma, keys)
				if got := m.Violations(); !got.Equal(want) {
					t.Fatalf("batch %d: live set diverges from batch oracle:\ngot:\n%s\nwant:\n%s",
						step, describe(got), describe(want))
				}
				if got := md.Violations(); !got.Equal(want) {
					t.Fatalf("batch %d: durable twin diverges:\ngot:\n%s\nwant:\n%s",
						step, describe(got), describe(want))
				}
			}
			want := m.Violations()
			if err := md.Close(); err != nil {
				t.Fatal(err)
			}
			rec, err := incremental.New(cfg.schema, cfg.sigma, incremental.Options{Durable: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			if !rec.Recovered() || !rec.Violations().Equal(want) || rec.Len() != m.Len() {
				t.Fatalf("batched journal did not recover: recovered=%v len=%d want %d",
					rec.Recovered(), rec.Len(), m.Len())
			}
		})
	}
}
