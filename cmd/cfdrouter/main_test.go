package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/httpapi"
	"repro/internal/node"
)

// The daemon is tested against real shard nodes: internal/node's
// handlers — the same ones cfdserve serves — over a monitor (or a
// follower wrapping one).

func custFixture(t *testing.T) (*repro.Schema, []*repro.CFD) {
	t.Helper()
	schema, err := repro.NewSchema("cust",
		repro.Attr("CC"), repro.Attr("AC"), repro.Attr("PN"),
		repro.Attr("NM"), repro.Attr("STR"), repro.Attr("CT"), repro.Attr("ZIP"))
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := repro.ParseCFDSet(`
[CC, AC, PN] -> [STR, CT, ZIP]
[CC=01, AC=908, PN] -> [STR, CT=MH, ZIP]
`)
	if err != nil {
		t.Fatal(err)
	}
	return schema, sigma
}

// startNode serves a real cfdserve node over m (and the follower f
// driving it, nil on a primary) and returns its base URL; wrap, when
// given, sits in front of the node's handler.
func startNode(t *testing.T, m *repro.Monitor, f *repro.MonitorFollower, wrap ...func(http.Handler) http.Handler) string {
	t.Helper()
	h := node.New(m, f).Handler()
	for _, w := range wrap {
		h = w(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

func postBody(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&v)
	return resp.StatusCode, v
}

func getBody(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&v)
	return resp.StatusCode, v
}

// startRouter builds a routerServer over the given shard groups, serves
// it from an httptest server and returns the versioned API root.
func startRouter(t *testing.T, groups []repro.ClusterGroupConfig) (*routerServer, string) {
	t.Helper()
	rt, err := repro.NewClusterRouter(context.Background(), groups, repro.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := newRouterServer(rt, 0, repro.NewMetricsRegistry())
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return srv, ts.URL + httpapi.Prefix
}

func TestDaemonRoutesAcrossShards(t *testing.T) {
	schema, sigma := custFixture(t)
	nodes := make(map[string]*repro.Monitor, 3)
	var groups []repro.ClusterGroupConfig
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("g%d", i)
		m, err := repro.NewMonitor(schema, sigma, repro.MonitorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		nodes[name] = m
		groups = append(groups, repro.ClusterGroupConfig{Name: name, Primary: newHTTPBackend(startNode(t, m, nil), 10*time.Second)})
	}
	srv, url := startRouter(t, groups)

	// A routed batch: keys are allocated by the router and every tuple
	// lands on the shard the ring names — and nowhere else.
	code, res := postBody(t, url+"/apply", `{"ops":[
		{"op":"insert","values":["01","908","1111111","Mike","Tree Ave.","MH","07974"]},
		{"op":"insert","values":["01","212","2222222","Joe","Elm Str.","NYC","01202"]},
		{"op":"insert","values":["01","215","3333333","Ben","Oak Ave.","PHI","19014"]}]}`)
	if code != http.StatusOK || fmt.Sprint(res["ops"]) != "3" {
		t.Fatalf("apply: %d %v", code, res)
	}
	keys := res["keys"].([]any)
	if len(keys) != 3 {
		t.Fatalf("keys = %v", keys)
	}
	for _, kv := range keys {
		key := int64(kv.(float64))
		_, ringRes := getBody(t, fmt.Sprintf("%s/ring?key=%d", url, key))
		owner, _ := ringRes["owner"].(string)
		for name, m := range nodes {
			_, ok := m.Get(key)
			if want := name == owner; ok != want {
				t.Fatalf("key %d: present=%v on %s, owner %s", key, ok, name, owner)
			}
		}
	}

	// A const-violating insert: the shard's delta comes back through the
	// router, and the cluster-wide /violations aggregate sees it.
	code, res = postBody(t, url+"/insert", `{"values":["01","908","4444444","Eve","Elm Str.","NYC","01202"]}`)
	if code != http.StatusOK {
		t.Fatalf("insert: %d %v", code, res)
	}
	badKey := int64(res["key"].(float64))
	delta := res["delta"].(map[string]any)
	if added := delta["added"].([]any); len(added) == 0 {
		t.Fatalf("violating insert produced no delta: %v", res)
	}
	code, res = getBody(t, url+"/violations")
	var wantTotal int64
	for _, m := range nodes {
		wantTotal += m.ViolationCount()
	}
	if code != http.StatusOK || fmt.Sprint(res["total"]) != fmt.Sprint(wantTotal) || wantTotal == 0 {
		t.Fatalf("violations: %d %v, nodes hold %d", code, res, wantTotal)
	}

	// The live-repair fan-out merges each group's suggestions under its
	// name; the violating tuple's owner contributes at least one.
	code, res = getBody(t, url+"/repairs")
	if code != http.StatusOK || res["total"].(float64) == 0 {
		t.Fatalf("repairs: %d %v, want a non-zero total", code, res)
	}
	rg := res["groups"].(map[string]any)
	if len(rg) != 3 {
		t.Fatalf("repairs groups = %v", rg)
	}
	owner := srv.rt.Owner(badKey)
	og := rg[owner].(map[string]any)
	if sugs := og["suggestions"].([]any); len(sugs) == 0 || og["node"] == "" {
		t.Fatalf("owner group %s repairs = %v", owner, og)
	}

	// A routed update heals it; a routed delete removes the tuple from
	// its owner.
	code, res = postBody(t, url+"/update", fmt.Sprintf(`{"key":%d,"attr":"CT","value":"MH"}`, badKey))
	if code != http.StatusOK {
		t.Fatalf("update: %d %v", code, res)
	}
	if removed := res["delta"].(map[string]any)["removed"].([]any); len(removed) == 0 {
		t.Fatalf("healing update removed nothing: %v", res)
	}
	code, _ = postBody(t, url+"/delete", fmt.Sprintf(`{"key":%d}`, badKey))
	if code != http.StatusOK {
		t.Fatal("delete failed")
	}
	if _, ok := nodes[srv.rt.Owner(badKey)].Get(badKey); ok {
		t.Fatal("deleted key still on its owner shard")
	}

	// Wire validation: delete with no key is refused up front.
	if code, _ = postBody(t, url+"/apply", `{"ops":[{"op":"delete"}]}`); code != http.StatusBadRequest {
		t.Fatalf("keyless delete: %d, want 400", code)
	}

	// /stats reflects the allocator watermark and every group.
	_, st := getBody(t, url+"/stats")
	if fmt.Sprint(st["next_key"]) != "4" {
		t.Fatalf("next_key = %v, want 4", st["next_key"])
	}
	if gs := st["groups"].([]any); len(gs) != 3 {
		t.Fatalf("stats groups = %v", gs)
	}
	_, ring := getBody(t, url+"/ring")
	if members := ring["members"].([]any); len(members) != 3 {
		t.Fatalf("ring members = %v", members)
	}
}

func TestDaemonPromoteFailover(t *testing.T) {
	_, sigma := custFixture(t)
	schema, _ := custFixture(t)
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

	_, url := startRouter(t, []repro.ClusterGroupConfig{{
		Name:     "g0",
		Primary:  newHTTPBackend(startNode(t, p, nil), 10*time.Second),
		Standbys: []repro.ClusterBackend{newHTTPBackend(startNode(t, f.Monitor(), f), 10*time.Second)},
	}})

	code, res := postBody(t, url+"/insert", `{"values":["01","908","1111111","Mike","Tree Ave.","MH","07974"]}`)
	if code != http.StatusOK {
		t.Fatalf("insert: %d %v", code, res)
	}
	for { // the standby catches up before failover
		n, err := f.Sync(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}

	// Failover: the standby takes over under a bumped epoch, and the
	// router re-points writes with no re-seeding.
	code, res = postBody(t, url+"/promote", `{"group":"g0"}`)
	if code != http.StatusOK || fmt.Sprint(res["epoch"]) != "1" {
		t.Fatalf("promote: %d %v", code, res)
	}
	code, res = postBody(t, url+"/insert", `{"values":["01","212","2222222","Joe","Elm Str.","NYC","01202"]}`)
	if code != http.StatusOK {
		t.Fatalf("post-failover insert: %d %v", code, res)
	}
	newKey := int64(res["key"].(float64))
	if _, ok := f.Monitor().Get(newKey); !ok {
		t.Fatal("post-failover write did not land on the promoted standby")
	}

	// The deposed primary was fenced over the wire: direct writes are
	// refused, so its history can never fork.
	if !p.Fenced() {
		t.Fatal("deposed primary is not fenced")
	}
	var cs repro.ChangeSet
	cs.Insert(repro.Tuple{"01", "908", "9999999", "X", "Y", "MH", "07974"})
	if _, err := p.Apply(&cs); !errors.Is(err, repro.ErrMonitorFenced) {
		t.Fatalf("deposed primary accepted a write: %v", err)
	}

	// No standbys remain, so a second failover is refused.
	if code, _ = postBody(t, url+"/promote", `{"group":"g0"}`); code != http.StatusConflict {
		t.Fatalf("second promote: %d, want 409", code)
	}
	_, st := getBody(t, url+"/stats")
	g0 := st["groups"].([]any)[0].(map[string]any)
	if fmt.Sprint(g0["epoch"]) != "1" || fmt.Sprint(g0["standbys"]) != "0" {
		t.Fatalf("group status after failover = %v", g0)
	}
}

// TestPprofRoutesRegistered: -pprof-addr serves http.DefaultServeMux, so
// the binary must register net/http/pprof's handlers on it.
func TestPprofRoutesRegistered(t *testing.T) {
	req := httptest.NewRequest(http.MethodGet, "/debug/pprof/profile", nil)
	if _, pattern := http.DefaultServeMux.Handler(req); !strings.HasSuffix(pattern, "/debug/pprof/profile") {
		t.Errorf("DefaultServeMux routes /debug/pprof/profile to pattern %q", pattern)
	}
}
