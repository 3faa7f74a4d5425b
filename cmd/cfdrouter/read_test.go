package main

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/httpapi"
)

// countViolationReads wraps a node's handler and counts /v1/violations
// hits, so the test can see which node actually served each routed
// read.
func countViolationReads(reads *atomic.Int64) func(http.Handler) http.Handler {
	return func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == httpapi.Prefix+"/violations" {
				reads.Add(1)
			}
			inner.ServeHTTP(w, r)
		})
	}
}

// TestDaemonReadFanout: consistency=primary pins every routed read to
// the primary; consistency=any spreads reads over the synced standby
// too, and both paths agree on the violation total.
func TestDaemonReadFanout(t *testing.T) {
	schema, sigma := custFixture(t)
	ctx := context.Background()
	p, err := repro.NewMonitor(schema, sigma, repro.MonitorOptions{Durable: t.TempDir(), RetainSegments: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	f, err := repro.FollowMonitor(ctx, sigma, repro.MonitorOptions{Durable: t.TempDir()},
		repro.FollowOptions{Source: repro.NewMonitorChunkSource(p)})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var preads, freads atomic.Int64
	_, url := startRouter(t, []repro.ClusterGroupConfig{{
		Name:     "g0",
		Primary:  newHTTPBackend(startNode(t, p, nil, countViolationReads(&preads)), 10*time.Second),
		Standbys: []repro.ClusterBackend{newHTTPBackend(startNode(t, f.Monitor(), f, countViolationReads(&freads)), 10*time.Second)},
	}})

	// Two tuples in one (CC, AC, PN) group with differing CT: one
	// variable violation, replicated to the standby before any read.
	for _, body := range []string{
		`{"values":["01","908","1111111","Mike","Tree Ave.","MH","07974"]}`,
		`{"values":["01","908","1111111","Rick","Tree Ave.","NYC","07974"]}`,
	} {
		if code, res := postBody(t, url+"/insert", body); code != http.StatusOK {
			t.Fatalf("insert: %d %v", code, res)
		}
	}
	for {
		if _, err := f.Sync(ctx); err != nil {
			t.Fatal(err)
		}
		if st := f.Status(); st.LagBytes == 0 {
			break
		}
	}
	want := p.ViolationCount()
	if want == 0 {
		t.Fatal("fixture produced no violations")
	}

	// Pinned to the primary: the standby serves nothing.
	for i := 0; i < 4; i++ {
		code, res := getBody(t, url+"/violations?consistency=primary")
		if code != http.StatusOK || fmt.Sprint(res["total"]) != fmt.Sprint(want) {
			t.Fatalf("primary read %d: %d %v", i, code, res)
		}
	}
	if n := freads.Load(); n != 0 {
		t.Fatalf("consistency=primary sent %d reads to the standby", n)
	}

	// Round-robined: both nodes serve, and every answer is the total.
	for i := 0; i < 6; i++ {
		code, res := getBody(t, url+"/violations?consistency=any")
		if code != http.StatusOK || fmt.Sprint(res["total"]) != fmt.Sprint(want) {
			t.Fatalf("any read %d: %d %v", i, code, res)
		}
	}
	if freads.Load() == 0 {
		t.Fatal("consistency=any never used the synced standby")
	}
	if preads.Load() == 0 {
		t.Fatal("consistency=any never used the primary")
	}

	// Junk mode is refused up front.
	if code, _ := getBody(t, url+"/violations?consistency=quorum"); code != http.StatusBadRequest {
		t.Fatalf("junk consistency: %d, want 400", code)
	}

	// /stats?shards=1 fans per-group node stats out through the same
	// read routing.
	code, st := getBody(t, url+"/stats?shards=1&consistency=any")
	if code != http.StatusOK {
		t.Fatalf("stats fanout: %d", code)
	}
	shards, ok := st["shards"].(map[string]any)
	if !ok {
		t.Fatalf("stats fanout has no shards block: %v", st)
	}
	g0, ok := shards["g0"].(map[string]any)
	if !ok || g0["epoch"] == nil {
		t.Fatalf("shards.g0 = %v", shards["g0"])
	}
	// Without ?shards the router answers from its own state alone.
	_, st = getBody(t, url+"/stats")
	if _, ok := st["shards"]; ok {
		t.Fatalf("plain /stats grew a shards block: %v", st)
	}
}
