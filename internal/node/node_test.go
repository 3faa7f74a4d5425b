package node

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/incremental"
	"repro/internal/relation"
)

// TestRepairsTrustSurvivesDiscover drives GET /v1/repairs?trust_threshold
// around a GET /v1/discover under another configuration: the suggester's
// confidence comes from its own group statistics, so a write that drops
// the FD's confidence below the threshold turns the next repairs answer
// into a relaxation suggestion.
func TestRepairsTrustSurvivesDiscover(t *testing.T) {
	schema := relation.MustSchema("R", relation.Attr("A"), relation.Attr("B"))
	sigma, err := core.ParseSet("[A] -> [B]")
	if err != nil {
		t.Fatal(err)
	}
	rel := relation.New(schema)
	for i := 0; i < 40; i++ {
		rel.MustInsert(fmt.Sprintf("a%d", i%4), fmt.Sprintf("b%d", i%4))
	}
	rel.MustInsert("a0", "bx") // one violation, confidence 40/41
	m, err := incremental.Load(rel, sigma, incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(m, nil)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	repairs := func() (kinds []string) {
		t.Helper()
		var body struct {
			Suggestions []struct {
				Kind string `json:"kind"`
			} `json:"suggestions"`
		}
		get(t, ts.URL+"/v1/repairs?trust_threshold=0.9", &body)
		for _, sg := range body.Suggestions {
			kinds = append(kinds, sg.Kind)
		}
		return kinds
	}
	if kinds := repairs(); fmt.Sprint(kinds) != "[value-merge]" {
		t.Fatalf("first repairs answered %v, want one value-merge", kinds)
	}
	get(t, ts.URL+"/v1/discover?max_lhs=2", nil)

	// Six more a0 tuples disagreeing on B: confidence 40/47 < 0.9.
	var cs incremental.ChangeSet
	for i := 0; i < 6; i++ {
		cs.Insert(relation.Tuple{"a0", fmt.Sprintf("by%d", i)})
	}
	if _, err := m.Apply(&cs); err != nil {
		t.Fatal(err)
	}
	if kinds := repairs(); fmt.Sprint(kinds) != "[relax-cfd]" {
		t.Fatalf("repairs after the confidence drop answered %v, want one relax-cfd", kinds)
	}
}

// discoverBody is the part of a GET /v1/discover answer the tests read.
type discoverBody struct {
	Tuples int `json:"tuples"`
	Count  int `json:"count"`
	Mined  []struct {
		LHS  []string `json:"lhs"`
		RHS  []string `json:"rhs"`
		IsFD bool     `json:"is_fd"`
	} `json:"mined"`
}

// hasFD reports whether the answer mined lhs -> rhs in FD form.
func (b discoverBody) hasFD(lhs, rhs string) bool {
	for _, d := range b.Mined {
		if d.IsFD && fmt.Sprint(d.LHS, d.RHS) == fmt.Sprint([]string{lhs}, []string{rhs}) {
			return true
		}
	}
	return false
}

// TestDiscoverEmptyMonitor: a node with no tuples answers 200 with an
// empty mined set, though Discover itself refuses an empty instance.
func TestDiscoverEmptyMonitor(t *testing.T) {
	m, err := incremental.New(relation.MustSchema("R", relation.Attr("A"), relation.Attr("B")), nil, incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(m, nil)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var body discoverBody
	get(t, ts.URL+"/v1/discover?min_support=1", &body)
	if body.Count != 0 || body.Tuples != 0 || len(body.Mined) != 0 {
		t.Fatalf("empty monitor answered %+v, want count 0", body)
	}
}

// TestDiscoverOnFollower: a standby serves GET /v1/discover from its own
// monitor — the primary's writes show only once the follower has
// synced them.
func TestDiscoverOnFollower(t *testing.T) {
	schema := relation.MustSchema("R", relation.Attr("A"), relation.Attr("B"))
	rel := relation.New(schema)
	for i := 0; i < 6; i++ {
		rel.MustInsert(fmt.Sprintf("a%d", i%3), fmt.Sprintf("b%d", i%3))
	}
	p, err := incremental.Load(rel, nil, incremental.Options{Durable: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx := context.Background()
	f, err := incremental.NewFollower(ctx, nil, incremental.Options{Durable: t.TempDir()},
		incremental.FollowOptions{Source: incremental.NewMonitorSource(p)})
	if err != nil {
		t.Fatal(err)
	}
	s := New(f.Monitor(), f)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	discover := func() discoverBody {
		t.Helper()
		var body discoverBody
		get(t, ts.URL+"/v1/discover", &body)
		return body
	}
	seed := discover()
	if seed.Tuples != 6 || !seed.hasFD("A", "B") || !seed.hasFD("B", "A") {
		t.Fatalf("follower mined %+v, want A -> B and B -> A over 6 tuples", seed)
	}
	// Break A -> B on the primary: the follower still mines its own,
	// unsynced state.
	if _, _, err := p.Insert(relation.Tuple{"a0", "bx"}); err != nil {
		t.Fatal(err)
	}
	if got := discover(); !reflect.DeepEqual(got, seed) {
		t.Fatalf("unsynced follower mined %+v, want its own 6-tuple state %+v", got, seed)
	}
	if _, err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if got := discover(); got.Tuples != 7 || got.hasFD("A", "B") || !got.hasFD("B", "A") {
		t.Fatalf("synced follower mined %+v, want the 7-tuple state without A -> B", got)
	}
}

// get fetches url, requires 200 and decodes the JSON body into out
// (nil skips decoding).
func get(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}
