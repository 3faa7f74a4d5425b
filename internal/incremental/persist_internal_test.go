package incremental

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
)

func snapshotFixture(t *testing.T) (*relation.Schema, []*core.CFD, *Monitor) {
	t.Helper()
	schema := relation.MustSchema("cust",
		relation.Attr("CC"), relation.Attr("AC"), relation.Attr("PN"),
		relation.Attribute{Name: "CT", Domain: relation.Enum("city", "MH", "NYC", "PHI")})
	sigma, err := core.ParseSet(`
[CC, AC] -> [CT]
[CC=01, AC=908] -> [CT=MH]
`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(schema, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range [][]string{
		{"01", "908", "1111111", "NYC"}, // breaks 908→MH and will split its group
		{"01", "908", "2222222", "MH"},
		{"01", "212", "3333333", "NYC"},
	} {
		if _, _, err := m.Insert(relation.Tuple(tp)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Delete(1); err != nil {
		t.Fatal(err)
	}
	return schema, sigma, m
}

// TestSnapshotRoundTrip: WriteSnapshot → readSnapshot must reproduce the
// tuples, keys, violation set and key allocator exactly.
func TestSnapshotRoundTrip(t *testing.T) {
	schema, sigma, m := snapshotFixture(t)
	var buf bytes.Buffer
	if err := m.writeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := New(schema, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.readSnapshot(bytes.NewReader(buf.Bytes()), int64(buf.Len())); err != nil {
		t.Fatal(err)
	}
	if m2.Len() != m.Len() {
		t.Fatalf("Len = %d, want %d", m2.Len(), m.Len())
	}
	if got, want := m2.Keys(), m.Keys(); len(got) != len(want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Keys = %v, want %v", got, want)
			}
		}
	}
	for _, k := range m.Keys() {
		want, _ := m.Get(k)
		got, ok := m2.Get(k)
		if !ok || !got.Equal(want) {
			t.Fatalf("tuple %d = %v, want %v", k, got, want)
		}
	}
	if !m2.Violations().Equal(m.Violations()) {
		t.Fatalf("violations diverge after round trip")
	}
	if m2.ViolationCount() != m.ViolationCount() {
		t.Fatalf("ViolationCount = %d, want %d", m2.ViolationCount(), m.ViolationCount())
	}
	// The key allocator must continue past the deleted key 1.
	key, _, err := m2.Insert(relation.Tuple{"01", "212", "4444444", "NYC"})
	if err != nil {
		t.Fatal(err)
	}
	if key != 3 {
		t.Fatalf("next key after restore = %d, want 3", key)
	}
}

// TestSnapshotRejectsCorruption: a flipped byte anywhere in the body must
// fail the CRC, and mismatched schema/Σ must be refused.
func TestSnapshotRejectsCorruption(t *testing.T) {
	schema, sigma, m := snapshotFixture(t)
	var buf bytes.Buffer
	if err := m.writeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	corrupt := append([]byte(nil), buf.Bytes()...)
	corrupt[len(corrupt)/2] ^= 0x40
	m2, _ := New(schema, sigma, Options{})
	if err := m2.readSnapshot(bytes.NewReader(corrupt), 0); err == nil {
		t.Fatal("corrupt image must fail the CRC")
	}

	truncated := buf.Bytes()[:buf.Len()/2]
	m3, _ := New(schema, sigma, Options{})
	if err := m3.readSnapshot(bytes.NewReader(truncated), 0); err == nil {
		t.Fatal("truncated image must be rejected")
	}

	otherSigma, err := core.ParseSet("[CC] -> [CT]")
	if err != nil {
		t.Fatal(err)
	}
	m4, _ := New(schema, otherSigma, Options{})
	if err := m4.readSnapshot(bytes.NewReader(buf.Bytes()), int64(buf.Len())); err == nil {
		t.Fatal("Σ mismatch must be rejected")
	}

	otherSchema := relation.MustSchema("cust",
		relation.Attr("CC"), relation.Attr("AC"), relation.Attr("PN"), relation.Attr("CT"))
	m5, _ := New(otherSchema, sigma, Options{})
	if err := m5.readSnapshot(bytes.NewReader(buf.Bytes()), int64(buf.Len())); err == nil {
		t.Fatal("schema mismatch (lost domain) must be rejected")
	}
}
