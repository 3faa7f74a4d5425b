//go:build !race

// Allocation budgets are deterministic where wall-clock gates are not,
// but the race detector changes how the runtime allocates, so they run
// only in plain builds.

package node

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/incremental"
	"repro/internal/relation"
)

// pollPath is the GET /v1/discover a serving node is polled with: the
// miner configuration the repair suggester's trust matches.
const pollPath = "/v1/discover?max_lhs=1&min_support=2&min_confidence=1"

// discardWriter is a ResponseWriter that keeps only the first bytes of
// the body, so what a call allocates is the handler's, not a buffer's.
type discardWriter struct {
	h    http.Header
	head []byte
	code int
}

func (w *discardWriter) Header() http.Header  { return w.h }
func (w *discardWriter) WriteHeader(code int) { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) {
	if n := min(len(p), cap(w.head)-len(w.head)); n > 0 {
		w.head = append(w.head, p[:n]...)
	}
	return len(p), nil
}

// serveDiscard runs one GET path through h and returns the answer's
// first bytes.
func serveDiscard(t *testing.T, h http.Handler, path string) []byte {
	w := &discardWriter{h: make(http.Header), head: make([]byte, 0, 256)}
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	if w.code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, w.code, w.head)
	}
	return w.head
}

// TestDiscoverEndpointAllocs pins the allocations of one GET /v1/discover
// at the poll configuration on 20 000 dirty tax rows, the serve-read
// benchmark's instance. The call copies the monitor's value IDs into
// columns, mines them and streams the answer one CFD at a time.
// Materializing a snapshot, encoding it back to IDs and encoding the
// whole answer at once measured 208 814 allocations here; the count now
// measures 960 (per mined CFD, per partition and per column, never per
// tuple or per pattern row), and the budget keeps about 10 % headroom. A
// change that moves the count edits the budget and says why.
func TestDiscoverEndpointAllocs(t *testing.T) {
	data := gen.GenerateTax(gen.TaxConfig{Size: 20000, Noise: 0.05, Seed: 1})
	m, err := incremental.Load(data.Dirty, nil, incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(m, nil)
	defer s.Close()
	h := s.Handler()
	const budget = 1060
	var head []byte
	got := testing.AllocsPerRun(2, func() { head = serveDiscard(t, h, pollPath) })
	t.Logf("GET /v1/discover: %.0f allocations; answer begins %s", got, head)
	if !bytes.Contains(head, []byte(`"count":`)) || bytes.Contains(head, []byte(`"count":0,`)) {
		t.Fatalf("answer begins %s, want a nonzero count", head)
	}
	if got > budget {
		t.Fatalf("GET /v1/discover made %.0f allocations, budget %d", got, budget)
	}
}

// TestDiscoverAllocsFollowLiveState: the value pool only grows, so a
// monitor whose pool holds five times its live distinct values must
// still answer GET /v1/discover with about the memory a freshly loaded
// twin of its live state does — within 1.2× the twin's allocated bytes —
// and with the same answer.
func TestDiscoverAllocsFollowLiveState(t *testing.T) {
	data := gen.GenerateTax(gen.TaxConfig{Size: 2000, Noise: 0.05, Seed: 2})
	pool := relation.NewInterner()
	m, err := incremental.Load(data.Dirty, nil, incremental.Options{Intern: pool})
	if err != nil {
		t.Fatal(err)
	}
	live := 0
	for _, vals := range m.Columns().Vals {
		live += len(vals)
	}
	names, keys := m.Schema().Names(), m.Keys()
	// Churn every tuple's first attribute through unique values and back.
	for round := 0; pool.Len() < 5*live; round++ {
		for _, back := range []bool{false, true} {
			var cs incremental.ChangeSet
			for i, k := range keys {
				v := fmt.Sprintf("churn-%d-%d", round, i)
				if back {
					v = data.Dirty.Tuples[i][0]
				}
				cs.Update(k, names[0], v)
			}
			if _, err := m.Apply(&cs); err != nil {
				t.Fatal(err)
			}
		}
	}
	twin, err := incremental.Load(m.Snapshot(), nil, incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}
	churned, fresh := New(m, nil), New(twin, nil)
	defer churned.Close()
	defer fresh.Close()
	q := discoverQueries()[0]
	if got, want := serveDiscover(t, churned.Handler(), q), serveDiscover(t, fresh.Handler(), q); !bytes.Equal(got, want) {
		t.Fatalf("churned monitor answered\n%s\nits fresh twin\n%s", got, want)
	}
	bytesOf := func(s *Server) uint64 {
		h := s.Handler()
		best := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			serveDiscard(t, h, pollPath)
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	c, f := bytesOf(churned), bytesOf(fresh)
	t.Logf("pool %d values, %d live; a call allocates %d B churned, %d B fresh", pool.Len(), live, c, f)
	if float64(c) > 1.2*float64(f) {
		t.Fatalf("a call on the churned monitor allocated %d B, above 1.2× its fresh twin's %d B", c, f)
	}
}
