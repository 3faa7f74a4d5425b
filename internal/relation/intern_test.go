package relation

import (
	"fmt"
	"sync"
	"testing"
)

func TestInternerCanonicalizes(t *testing.T) {
	in := NewInterner()
	a := in.Intern("NYC")
	b := in.Intern("NY" + "C"[:1]) // equal value, distinct backing bytes
	if a != b {
		t.Fatalf("interned values differ: %q vs %q", a, b)
	}
	if in.Len() != 1 {
		t.Fatalf("Len = %d, want 1", in.Len())
	}
	// Distinct values stay distinct.
	if d := in.Intern("MH"); d != "MH" || in.Len() != 2 {
		t.Fatalf("second value: %q, Len = %d", d, in.Len())
	}
}

// TestInternerLookup: Lookup finds a pooled value's ID and reports a
// miss without pooling the value.
func TestInternerLookup(t *testing.T) {
	in := NewInterner()
	id := in.ID("NYC")
	if got, ok := in.Lookup("NYC"); !ok || got != id {
		t.Fatalf("Lookup(NYC) = %d, %v; want %d, true", got, ok, id)
	}
	if _, ok := in.Lookup("MH"); ok || in.Len() != 1 {
		t.Fatalf("Lookup(MH) found it or pooled it: ok %v, Len %d", ok, in.Len())
	}
}

func TestInternTuple(t *testing.T) {
	in := NewInterner()
	tp := Tuple{"a", "b", "a"}
	out := in.InternTuple(tp)
	if &out[0] != &tp[0] {
		t.Fatal("InternTuple must canonicalize in place")
	}
	if !out.Equal(Tuple{"a", "b", "a"}) {
		t.Fatalf("values changed: %v", out)
	}
	if in.Len() != 2 {
		t.Fatalf("Len = %d, want 2 distinct values", in.Len())
	}
}

// TestInternerConcurrent hammers one pool from parallel goroutines; run
// under -race. Every caller must get the same canonical value per key.
func TestInternerConcurrent(t *testing.T) {
	in := NewInterner()
	var wg sync.WaitGroup
	const workers, vals = 8, 64
	got := make([][]Value, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]Value, vals)
			for i := 0; i < vals; i++ {
				got[w][i] = in.Intern(fmt.Sprintf("v%d", i))
			}
		}(w)
	}
	wg.Wait()
	if in.Len() != vals {
		t.Fatalf("Len = %d, want %d", in.Len(), vals)
	}
	for w := 1; w < workers; w++ {
		for i := range got[w] {
			if got[w][i] != got[0][i] {
				t.Fatalf("worker %d value %d diverges", w, i)
			}
		}
	}
}

func TestAppendKeyMatchesEncodeKey(t *testing.T) {
	cases := [][]Value{
		nil,
		{""},
		{"a"},
		{"a", "bc"},
		{"1:x", "", "yy"},
	}
	for _, vals := range cases {
		if got, want := string(AppendKey(nil, vals)), EncodeKey(vals); got != want {
			t.Fatalf("AppendKey(%q) = %q, want %q", vals, got, want)
		}
	}
	// Appending extends dst rather than replacing it.
	buf := AppendKey([]byte("pre"), []Value{"x"})
	if string(buf) != "pre"+EncodeKey([]Value{"x"}) {
		t.Fatalf("AppendKey with prefix = %q", buf)
	}
}

func BenchmarkInternHit(b *testing.B) {
	in := NewInterner()
	in.Intern("NYC")
	key := "NY" + "C"[:1] // equal value, distinct backing bytes
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in.ID(key)
	}
}
