package node

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/incremental"
	"repro/internal/relation"
)

// TestRepairsTrustSurvivesDiscover drives GET /v1/repairs?trust_threshold
// around a GET /v1/discover under another configuration: the repairs
// calls attach no miner (the suggester's confidence comes from its own
// group statistics), the discover call's miner stays the one cached, and
// a write that drops the FD's confidence below the threshold turns the
// next repairs answer into a relaxation suggestion.
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
	if s.miner != nil {
		t.Fatal("GET /v1/repairs attached a miner")
	}
	get(t, ts.URL+"/v1/discover?max_lhs=2", nil)
	mi := s.miner

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
	if s.miner != mi {
		t.Fatal("GET /v1/repairs replaced the discover endpoint's miner")
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
