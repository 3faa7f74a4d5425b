package incremental_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/incremental"
	"repro/internal/relation"
)

// A WAL directory admits one journal at a time: a second monitor on the
// same directory must be refused while the first is open, and admitted
// once it closes (the advisory lock dies with the journal, and with the
// process on crash).
func TestWALDirectoryExclusive(t *testing.T) {
	schema, err := relation.NewSchema("R", relation.Attr("A"), relation.Attr("B"))
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := core.ParseSet("[A] -> [B]\n")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	m, err := incremental.New(schema, sigma, incremental.Options{Durable: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := incremental.New(schema, sigma, incremental.Options{Durable: dir}); err == nil {
		t.Fatal("second monitor on a held WAL directory: no error")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := incremental.New(schema, sigma, incremental.Options{Durable: dir})
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
}

// Open must boot a durable monitor from the WAL directory alone — no
// seed relation, schema reconstructed (domains included) from the latest
// snapshot — and fall back with ErrNoState when no snapshot exists yet.
func TestOpenFromWALDirectory(t *testing.T) {
	city := relation.Enum("city", "MH", "NYC", "PHI")
	schema, err := relation.NewSchema("cust",
		relation.Attr("AC"), relation.Attribute{Name: "CT", Domain: city})
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := core.ParseSet("[AC=908] -> [CT=MH]\n")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	if _, err := incremental.Open(sigma, incremental.Options{}); err == nil {
		t.Fatal("Open without Durable: no error")
	}
	if _, err := incremental.Open(sigma, incremental.Options{Durable: dir}); !errors.Is(err, incremental.ErrNoState) {
		t.Fatalf("Open on empty dir: err = %v, want ErrNoState", err)
	}

	m, err := incremental.New(schema, sigma, incremental.Options{Durable: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Insert(relation.Tuple{"908", "NYC"}); err != nil { // violates the constant CFD
		t.Fatal(err)
	}
	// Journaled records alone are not enough for Open — the schema lives
	// in the snapshot.
	if _, err := incremental.Open(sigma, incremental.Options{Durable: dir}); !errors.Is(err, incremental.ErrNoState) {
		t.Fatalf("Open before first snapshot: err = %v, want ErrNoState", err)
	}
	if err := m.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Insert(relation.Tuple{"908", "MH"}); err != nil { // lands in the log tail
		t.Fatal(err)
	}
	wantLen, wantViol := m.Len(), m.ViolationCount()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := incremental.SnapshotSchema(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "cust" || len(got.Attrs) != 2 || got.Attrs[1].Domain == nil ||
		got.Attrs[1].Domain.Name != "city" || !reflect.DeepEqual(got.Attrs[1].Domain.Values, city.Values) {
		t.Fatalf("SnapshotSchema = %+v, want the original schema with its domain", got)
	}

	re, err := incremental.Open(sigma, incremental.Options{Durable: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.Recovered() || re.Len() != wantLen || re.ViolationCount() != wantViol {
		t.Fatalf("opened monitor: recovered=%v len=%d violations=%d, want true/%d/%d",
			re.Recovered(), re.Len(), re.ViolationCount(), wantLen, wantViol)
	}
}

// SnapshotSchema reads only a prefix of the image; a schema section
// longer than the first read (here a 3 000-value domain) must still come
// back whole.
func TestSnapshotSchemaPastFirstRead(t *testing.T) {
	vals := make([]relation.Value, 3000)
	for i := range vals {
		vals[i] = fmt.Sprintf("v%04d", i)
	}
	schema, err := relation.NewSchema("wide",
		relation.Attr("K"), relation.Attribute{Name: "V", Domain: relation.Enum("codes", vals...)})
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := core.ParseSet("[K] -> [V]\n")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	m, err := incremental.New(schema, sigma, incremental.Options{Durable: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := incremental.SnapshotSchema(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "wide" || len(got.Attrs) != 2 || got.Attrs[1].Domain == nil ||
		!reflect.DeepEqual(got.Attrs[1].Domain.Values, vals) {
		t.Fatalf("SnapshotSchema lost the long domain: %+v", got.Attrs)
	}
}
