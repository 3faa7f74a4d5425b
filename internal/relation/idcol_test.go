package relation

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestInternerIDRoundTripConcurrent is the ID-path property test: under
// concurrent interning of overlapping value sets, every ID any goroutine
// ever observes must resolve back (ByID) to exactly the value it was
// assigned for, IDs must be dense (pool length == distinct values), and
// Materialize must invert AppendIDs.
func TestInternerIDRoundTripConcurrent(t *testing.T) {
	in := NewInterner()
	const goroutines = 8
	const rounds = 200
	// Overlapping per-goroutine vocabularies: value v%d.%d is shared by
	// every goroutine, so most ID calls race on the same misses.
	vocab := make([]Value, 40)
	for i := range vocab {
		vocab[i] = Value(fmt.Sprintf("v%d.%d", i/10, i%10))
	}
	vocab[0] = "" // the empty value is a legal, internable value

	type obs struct{ ids map[uint32]Value }
	results := make([]obs, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			seen := map[uint32]Value{}
			var idbuf []uint32
			for r := 0; r < rounds; r++ {
				// Single-value path.
				v := vocab[rng.Intn(len(vocab))]
				seen[in.ID(v)] = v
				// Batch path over a random tuple.
				tup := Tuple{
					vocab[rng.Intn(len(vocab))],
					vocab[rng.Intn(len(vocab))],
					vocab[rng.Intn(len(vocab))],
				}
				idbuf = in.AppendIDs(idbuf[:0], tup)
				for i, id := range idbuf {
					seen[id] = tup[i]
				}
			}
			results[g] = obs{ids: seen}
		}(g)
	}
	wg.Wait()

	merged := map[uint32]Value{}
	for g, r := range results {
		for id, v := range r.ids {
			if got := in.ByID(id); got != v {
				t.Fatalf("goroutine %d: ByID(%d) = %q, want %q", g, id, got, v)
			}
			if prev, ok := merged[id]; ok && prev != v {
				t.Fatalf("ID %d handed out for both %q and %q", id, prev, v)
			}
			merged[id] = v
		}
	}
	// Dense: one ID per distinct value actually interned, starting at 0.
	if n := in.Len(); n != len(merged) {
		t.Fatalf("pool holds %d values, observed %d distinct IDs", n, len(merged))
	}
	for id := range merged {
		if int(id) >= len(merged) {
			t.Fatalf("ID %d outside dense range [0,%d)", id, len(merged))
		}
	}
	// Materialize inverts AppendIDs.
	tup := Tuple{vocab[3], vocab[3], "", vocab[17]}
	ids := in.AppendIDs(nil, tup)
	back := in.Materialize(nil, ids)
	if len(back) != len(tup) {
		t.Fatalf("materialized %d values, want %d", len(back), len(tup))
	}
	for i := range tup {
		if back[i] != tup[i] {
			t.Fatalf("materialize[%d] = %q, want %q", i, back[i], tup[i])
		}
	}
}

// TestIDKeyRoundTrip pins the packed ID key: 4 bytes per ID, and
// DecodeIDKey inverts AppendIDKey.
func TestIDKeyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		ids := make([]uint32, rng.Intn(6))
		for i := range ids {
			// Mix tiny IDs with ones exercising all four bytes.
			ids[i] = uint32(rng.Int63()) >> uint(rng.Intn(32))
		}
		packed := AppendIDKey(nil, ids)
		if len(packed) != 4*len(ids) {
			t.Fatalf("packed %d IDs into %d bytes", len(ids), len(packed))
		}
		back := DecodeIDKey(nil, string(packed))
		if len(back) != len(ids) {
			t.Fatalf("decoded %d IDs, want %d", len(back), len(ids))
		}
		for i := range ids {
			if back[i] != ids[i] {
				t.Fatalf("decode[%d] = %d, want %d", i, back[i], ids[i])
			}
		}
	}
}
