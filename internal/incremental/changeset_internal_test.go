package incremental

import (
	"errors"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/relation"
)

// TestApplyRejectsPoisonedJournal: after a failed append the journal is
// poisoned — the record may or may not be on disk — and every ChangeSet
// (and single-op wrapper) must be refused until a snapshot resolves the
// uncertainty. A successful snapshot heals the journal and Apply works
// again.
func TestApplyRejectsPoisonedJournal(t *testing.T) {
	schema := relation.MustSchema("T", relation.Attr("A"), relation.Attr("B"))
	cfd := core.MustCFD([]string{"A"}, []string{"B"},
		core.PatternRow{X: []core.Pattern{core.W()}, Y: []core.Pattern{core.W()}})
	m, err := New(schema, []*core.CFD{cfd}, Options{Durable: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, _, err := m.Insert(relation.Tuple{"a", "b"}); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("disk went away")
	m.mu.Lock()
	m.j.appendErr = boom
	m.mu.Unlock()

	poolBefore := m.vals.Len()
	cs := (&ChangeSet{}).Insert(relation.Tuple{"a2", "b2"}).Update(0, "B", "b3")
	if _, err := m.Apply(cs); err == nil || !errors.Is(err, boom) || !strings.Contains(err.Error(), "journal failed") {
		t.Fatalf("poisoned journal accepted a ChangeSet: %v", err)
	}
	if _, _, err := m.Insert(relation.Tuple{"a2", "b2"}); err == nil {
		t.Fatal("poisoned journal accepted a single insert")
	}
	if m.Len() != 1 {
		t.Fatalf("refused batch leaked state: Len = %d", m.Len())
	}
	// Refused mutations must not grow the intern pools: only applied
	// state does.
	if got := m.vals.Len(); got != poolBefore {
		t.Fatalf("rejected ops grew the value pool: %d -> %d", poolBefore, got)
	}

	// ForceSnapshot starts a fresh segment from the in-memory state,
	// resolving the uncertainty; mutations flow again.
	if err := m.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(cs); err != nil {
		t.Fatalf("healed journal still refuses batches: %v", err)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
}

// TestBatchKeysInterned: the mutation path dedups tuple values through
// the monitor's value pool — N tuples sharing categorical values must
// not grow the pool past the distinct-value count.
func TestBatchKeysInterned(t *testing.T) {
	schema := relation.MustSchema("T", relation.Attr("A"), relation.Attr("B"))
	cfd := core.MustCFD([]string{"A"}, []string{"B"},
		core.PatternRow{X: []core.Pattern{core.W()}, Y: []core.Pattern{core.W()}})
	m, err := New(schema, []*core.CFD{cfd}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var cs ChangeSet
	for i := 0; i < 200; i++ {
		// 2 distinct A values, 2 distinct B values.
		cs.Insert(relation.Tuple{string(rune('a' + i%2)), string(rune('x' + i%2))})
	}
	if _, err := m.Apply(&cs); err != nil {
		t.Fatal(err)
	}
	if got := m.vals.Len(); got != 4 {
		t.Fatalf("value pool holds %d entries, want 4", got)
	}
	// The stored tuples really share backing bytes with the pool.
	t0, _ := m.Get(0)
	t2, _ := m.Get(2)
	if unsafe.StringData(t0[0]) != unsafe.StringData(t2[0]) {
		t.Fatal("equal values do not share backing storage")
	}
}
