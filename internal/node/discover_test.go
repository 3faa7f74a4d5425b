package node

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"repro/internal/discovery"
	"repro/internal/httpapi"
	"repro/internal/incremental"
	"repro/internal/relation"
)

// The endpoint's oracle: GET /v1/discover mines the monitor's own value
// IDs and streams its answer, and must answer byte for byte what mining
// a materialized snapshot and encoding the whole answer at once does —
// referenceAnswer, the endpoint as it was written before the column read.

// referenceAnswer is the /v1/discover answer for q built the long way:
// discovery.Discover over m.Snapshot(), encoded whole by httpapi.WriteJSON.
func referenceAnswer(t *testing.T, m *incremental.Monitor, q url.Values) []byte {
	t.Helper()
	cfg, err := discoverConfig(q)
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	var ds []discovery.Discovered
	if snap.Len() > 0 {
		if ds, err = discovery.Discover(snap, cfg); err != nil {
			t.Fatal(err)
		}
	}
	type mined struct {
		LHS     []string `json:"lhs"`
		RHS     []string `json:"rhs"`
		IsFD    bool     `json:"is_fd"`
		Support []int    `json:"support"`
		CFD     string   `json:"cfd"`
	}
	out := make([]mined, len(ds))
	for i, d := range ds {
		out[i] = mined{LHS: d.CFD.LHS, RHS: d.CFD.RHS, IsFD: d.IsFD, Support: d.Support, CFD: d.CFD.String()}
	}
	rec := httptest.NewRecorder()
	httpapi.WriteJSON(rec, http.StatusOK, map[string]any{
		"config": map[string]any{
			"max_lhs":        cfg.MaxLHS,
			"min_support":    cfg.MinSupport,
			"min_confidence": cfg.MinConfidence,
			"max_patterns":   cfg.MaxPatterns,
		},
		"tuples": snap.Len(),
		"count":  len(out),
		"mined":  out,
	})
	return rec.Body.Bytes()
}

// serveDiscover runs one GET /v1/discover?q through the node's handler.
func serveDiscover(t *testing.T, h http.Handler, q url.Values) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/discover?"+q.Encode(), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/discover?%s: status %d: %s", q.Encode(), rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	return rec.Body.Bytes()
}

// discoverPools hold values of different lengths, values the text
// notation must quote (a space, a quote, a comma, the empty string, the
// pattern symbols) and values JSON escapes ('<', '&', a non-ASCII rune).
var discoverPools = [][]relation.Value{
	{"a", "ab", "b", "15 Oak Ave."},
	{"O'Brien", "b1", "", "x,y"},
	{"_", "@", "c", "c<d>&e"},
	{"d", "dé", "d=1"},
}

func discoverSchema() *relation.Schema {
	return relation.MustSchema("R",
		relation.Attr("A"), relation.Attr("B"), relation.Attr("C"), relation.Attr("D"))
}

// randDiscoverTuple draws a tuple whose later attributes mostly follow
// the first, so FDs, near-FDs and pattern rows all occur.
func randDiscoverTuple(rng *rand.Rand) relation.Tuple {
	t := make(relation.Tuple, len(discoverPools))
	first := rng.Intn(len(discoverPools[0]))
	for a, pool := range discoverPools {
		i := rng.Intn(len(pool))
		if a > 0 && rng.Float64() < 0.7 {
			i = first % len(pool)
		}
		t[a] = pool[i]
	}
	return t
}

// churn applies n random ops to m: inserts, deletes and updates, some
// of them to unique values a later op overwrites, so the pool holds
// values no live tuple does.
func churn(t *testing.T, rng *rand.Rand, m *incremental.Monitor, n int) {
	t.Helper()
	names := m.Schema().Names()
	dead := 0
	for n > 0 {
		var cs incremental.ChangeSet
		keys := m.Keys()
		for i := 0; i < 1+rng.Intn(8) && n > 0; i, n = i+1, n-1 {
			switch r := rng.Intn(10); {
			case r < 4 || len(keys) == 0:
				cs.Insert(randDiscoverTuple(rng))
			case r < 6:
				k := keys[rng.Intn(len(keys))]
				cs.Delete(k)
				keys = deleteKey(keys, k)
			default:
				k, a := keys[rng.Intn(len(keys))], rng.Intn(len(names))
				if r < 8 {
					dead++
					cs.Update(k, names[a], fmt.Sprintf("dead-%d", dead))
				}
				cs.Update(k, names[a], discoverPools[a][rng.Intn(len(discoverPools[a]))])
			}
		}
		if _, err := m.Apply(&cs); err != nil {
			t.Fatal(err)
		}
	}
}

func deleteKey(keys []int64, k int64) []int64 {
	for i, x := range keys {
		if x == k {
			return append(keys[:i:i], keys[i+1:]...)
		}
	}
	return keys
}

// discoverQueries are the configs every instance is mined under: LHS
// width 1–2, support 1 (singleton groups yield rows) and 2, confidence
// 0.5 (dominant-value ties yield rows) and 1, pattern cap 0 and 2.
func discoverQueries() []url.Values {
	var qs []url.Values
	for _, lhs := range []string{"1", "2"} {
		for _, sup := range []string{"1", "2"} {
			for _, conf := range []string{"0.5", "1"} {
				for _, cap := range []string{"0", "2"} {
					qs = append(qs, url.Values{"max_lhs": {lhs}, "min_support": {sup}, "min_confidence": {conf}, "max_patterns": {cap}})
				}
			}
		}
	}
	return qs
}

// TestDiscoverAnswerMatchesSnapshot: on random instances after a random
// insert/update/delete stream — an empty monitor and one emptied by its
// stream included — the streamed answer equals the reference byte for
// byte under every config, asked several times, since the column read's
// tuple order varies from call to call.
func TestDiscoverAnswerMatchesSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for inst := 0; inst < 12; inst++ {
		m, err := incremental.New(discoverSchema(), nil, incremental.Options{})
		if err != nil {
			t.Fatal(err)
		}
		switch inst {
		case 0: // never written
		case 1: // emptied: every value in the pool is dead
			churn(t, rng, m, 40)
			var cs incremental.ChangeSet
			for _, k := range m.Keys() {
				cs.Delete(k)
			}
			if _, err := m.Apply(&cs); err != nil {
				t.Fatal(err)
			}
		default:
			churn(t, rng, m, 10+rng.Intn(120))
		}
		s := New(m, nil)
		h := s.Handler()
		for _, q := range discoverQueries() {
			want := referenceAnswer(t, m, q)
			for rep := 0; rep < 3; rep++ {
				if got := serveDiscover(t, h, q); !bytes.Equal(got, want) {
					t.Fatalf("instance %d (%d tuples), %s, call %d:\n got: %s\nwant: %s", inst, m.Len(), q.Encode(), rep, got, want)
				}
			}
		}
		s.Close()
	}
}

// TestDiscoverBesideWriters runs discovery beside concurrent writers
// whose every ChangeSet leaves the live tuples the same multiset: it
// swaps two whole tuples, updates a value to a unique one and back, and
// inserts a tuple and deletes it. So every answer must equal the
// reference taken before the writers started — unless the column read
// sees part of a window, one tuple of a swap before it and the other
// after, and mines a duplicate in place of a tuple.
func TestDiscoverBesideWriters(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	m, err := incremental.New(discoverSchema(), nil, incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var seed incremental.ChangeSet
	for i := 0; i < 60; i++ {
		seed.Insert(randDiscoverTuple(rng))
	}
	if _, err := m.Apply(&seed); err != nil {
		t.Fatal(err)
	}
	s := New(m, nil)
	defer s.Close()
	h := s.Handler()
	q := url.Values{"max_lhs": {"2"}, "min_support": {"1"}, "min_confidence": {"0.5"}}
	want := referenceAnswer(t, m, q)

	const writers, calls = 3, 40
	keys := m.Keys()
	names := m.Schema().Names()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var own []int64 // writer w owns the keys ≡ w mod writers
			for i := w; i < len(keys); i += writers {
				own = append(own, keys[i])
			}
			for r := 0; ; r++ {
				select {
				case <-stop:
					return
				default:
				}
				k1, k2 := own[r%len(own)], own[(r+1)%len(own)]
				t1, _ := m.Get(k1)
				t2, _ := m.Get(k2)
				var cs incremental.ChangeSet
				for a, name := range names {
					cs.Update(k1, name, t2[a]).Update(k2, name, t1[a])
				}
				a := r % len(names)
				cs.Update(k1, names[a], fmt.Sprintf("w%d-r%d", w, r)).Update(k1, names[a], t2[a])
				extra := int64(1_000_000 + w*1_000_000 + r)
				cs.InsertKeyed(extra, t1).Delete(extra)
				if _, err := m.Apply(&cs); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	var bad []byte
	for i := 0; i < calls && bad == nil; i++ {
		if got := serveDiscover(t, h, q); !bytes.Equal(got, want) {
			bad = got
		}
	}
	close(stop)
	wg.Wait()
	if bad != nil {
		t.Fatalf("a call beside writers:\n got: %s\nwant: %s", bad, want)
	}
	if got := serveDiscover(t, h, q); !bytes.Equal(got, want) {
		t.Fatalf("after the writers:\n got: %s\nwant: %s", got, want)
	}
}
