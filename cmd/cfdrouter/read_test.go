package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
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

// countBytes wraps a node's handler and adds up the body bytes it
// writes, so a test can gate a routed read on the work each node did.
func countBytes(n *atomic.Int64) func(http.Handler) http.Handler {
	return func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			inner.ServeHTTP(byteCounter{w, n}, r)
		})
	}
}

type byteCounter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (c byteCounter) Write(p []byte) (int, error) {
	c.n.Add(int64(len(p)))
	return c.ResponseWriter.Write(p)
}

// countConns wraps a node's handler and records the distinct client
// connections (remote addresses) its requests arrive on.
func countConns(mu *sync.Mutex, seen map[string]bool) func(http.Handler) http.Handler {
	return func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			seen[r.RemoteAddr] = true
			mu.Unlock()
			inner.ServeHTTP(w, r)
		})
	}
}

// dirtyMonitor is a node holding n tuples, each its own constant
// violation of the CT=MH pattern (and its own repair suggestion).
func dirtyMonitor(t *testing.T, n int) *repro.Monitor {
	t.Helper()
	schema, sigma := custFixture(t)
	m, err := repro.NewMonitor(schema, sigma, repro.MonitorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var cs repro.ChangeSet
	for i := 0; i < n; i++ {
		cs.Insert(repro.Tuple{"01", "908", fmt.Sprintf("%07d", i), "Ann", "Oak Ave.", "NYC", "07974"})
	}
	if _, err := m.Apply(&cs); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRoutedPointReadGoesToOwner: ?key=K is read on the key's owning
// group alone, and the owner's answer comes back as the node wrote it.
// A key no group holds answers the node's 404.
func TestRoutedPointReadGoesToOwner(t *testing.T) {
	schema, sigma := custFixture(t)
	reads := map[string]*atomic.Int64{"g0": new(atomic.Int64), "g1": new(atomic.Int64)}
	nodeURL := make(map[string]string)
	var groups []repro.ClusterGroupConfig
	for _, name := range []string{"g0", "g1"} {
		m, err := repro.NewMonitor(schema, sigma, repro.MonitorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		nodeURL[name] = startNode(t, m, nil, countViolationReads(reads[name]))
		groups = append(groups, repro.ClusterGroupConfig{Name: name, Primary: newHTTPBackend(nodeURL[name], 10*time.Second)})
	}
	srv, url := startRouter(t, groups)

	// Insert until both groups own a key; every other tuple violates
	// CT=MH, so the point totals differ from key to key.
	owned := map[string][]int64{}
	for i := 0; i < 64 && (len(owned["g0"]) < 2 || len(owned["g1"]) < 2); i++ {
		ct := "MH"
		if i%2 == 1 {
			ct = "NYC"
		}
		code, res := postBody(t, url+"/insert", fmt.Sprintf(`{"values":["01","908","%07d","Ann","Oak Ave.","%s","07974"]}`, i, ct))
		if code != http.StatusOK {
			t.Fatalf("insert: %d %v", code, res)
		}
		key := int64(res["key"].(float64))
		owned[srv.rt.Owner(key)] = append(owned[srv.rt.Owner(key)], key)
	}
	if len(owned["g0"]) == 0 || len(owned["g1"]) == 0 {
		t.Fatalf("no key landed on one of the groups: %v", owned)
	}

	for owner, keys := range owned {
		other := "g0"
		if owner == other {
			other = "g1"
		}
		for _, key := range keys {
			reads[owner].Store(0)
			reads[other].Store(0)
			path := fmt.Sprintf("/violations?key=%d", key)
			code, routed := getRaw(t, url+path)
			if code != http.StatusOK {
				t.Fatalf("key %d: %d %s", key, code, routed)
			}
			if n := reads[other].Load(); n != 0 {
				t.Fatalf("key %d (owner %s): non-owner %s served %d reads", key, owner, other, n)
			}
			if n := reads[owner].Load(); n != 1 {
				t.Fatalf("key %d: owner %s served %d reads, want 1", key, owner, n)
			}
			_, direct := getRaw(t, nodeURL[owner]+httpapi.Prefix+path)
			if routed != direct {
				t.Fatalf("key %d: routed answer %s, owner node answers %s", key, routed, direct)
			}
		}
	}

	code, res := getBody(t, url+"/violations?key=999999")
	env, _ := res["error"].(map[string]any)
	if code != http.StatusNotFound || env == nil || env["code"] != "not_found" {
		t.Fatalf("unheld key: %d %v, want 404 not_found", code, res)
	}
}

// TestRoutedPointReadFallsBackToPrimary: a key inserted on the primary
// and not yet shipped to the standby is still found under
// consistency=any — the standby's 404 is retried on the primary.
func TestRoutedPointReadFallsBackToPrimary(t *testing.T) {
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

	// Acknowledged by the primary, never synced to the standby.
	code, res := postBody(t, url+"/insert", `{"values":["01","908","5555555","Eve","Elm Str.","NYC","01202"]}`)
	if code != http.StatusOK {
		t.Fatalf("insert: %d %v", code, res)
	}
	key := int64(res["key"].(float64))
	if _, ok := f.Monitor().Get(key); ok {
		t.Fatal("the standby already holds the unsynced key")
	}
	st, ok := p.ViolationsFor(key)
	if !ok {
		t.Fatal("the primary does not hold the inserted key")
	}
	want := st.Total()
	if want == 0 || int64(want) == p.ViolationCount() {
		t.Fatalf("fixture: key total %d must be non-zero and differ from the group's %d", want, p.ViolationCount())
	}

	for i := 0; i < 6; i++ {
		code, res := getBody(t, fmt.Sprintf("%s/violations?key=%d&consistency=any", url, key))
		if code != http.StatusOK || fmt.Sprint(res["total"]) != fmt.Sprint(want) {
			t.Fatalf("any read %d of key %d: %d %v, want total %d", i, key, code, res, want)
		}
	}
	if freads.Load() == 0 {
		t.Fatal("consistency=any never asked the standby, so the fallback went untested")
	}
	if preads.Load() == 0 {
		t.Fatal("no read reached the primary")
	}
}

// TestRoutedTotalReadsOneRowPages gates the routed total on work, not
// time: with a thousand violations on a group, one routed GET
// /v1/violations makes no node write more than 1 KiB, and the total is
// still the sum of the groups' counts.
func TestRoutedTotalReadsOneRowPages(t *testing.T) {
	ms := map[string]*repro.Monitor{"g0": dirtyMonitor(t, 1200), "g1": dirtyMonitor(t, 30)}
	written := map[string]*atomic.Int64{"g0": new(atomic.Int64), "g1": new(atomic.Int64)}
	var groups []repro.ClusterGroupConfig
	var want int64
	for _, name := range []string{"g0", "g1"} {
		want += ms[name].ViolationCount()
		groups = append(groups, repro.ClusterGroupConfig{Name: name,
			Primary: newHTTPBackend(startNode(t, ms[name], nil, countBytes(written[name])), 10*time.Second)})
	}
	if n := ms["g0"].ViolationCount(); n < 1000 {
		t.Fatalf("fixture: g0 holds %d violations, want at least 1000", n)
	}
	_, url := startRouter(t, groups)

	for _, n := range written {
		n.Store(0)
	}
	code, res := getBody(t, url+"/violations")
	if code != http.StatusOK || fmt.Sprint(res["total"]) != fmt.Sprint(want) {
		t.Fatalf("routed total: %d %v, want %d", code, res, want)
	}
	for name, n := range written {
		if b := n.Load(); b > 1024 {
			t.Errorf("node %s wrote %d bytes for one routed total, want at most 1024", name, b)
		}
	}
}

// TestRouterReusesShardConnections: routed reads whose node answers are
// chunked (about 44 KB each here) keep reusing one keep-alive
// connection per node, because every shard answer is read to EOF
// before it is closed.
func TestRouterReusesShardConnections(t *testing.T) {
	var groups []repro.ClusterGroupConfig
	var mu sync.Mutex
	seen := map[string]map[string]bool{}
	written := map[string]*atomic.Int64{}
	for _, name := range []string{"g0", "g1"} {
		seen[name], written[name] = map[string]bool{}, new(atomic.Int64)
		nodeURL := startNode(t, dirtyMonitor(t, 200), nil, countConns(&mu, seen[name]), countBytes(written[name]))
		groups = append(groups, repro.ClusterGroupConfig{Name: name, Primary: newHTTPBackend(nodeURL, 10*time.Second)})
	}
	_, url := startRouter(t, groups)

	mu.Lock()
	for _, s := range seen {
		clear(s)
	}
	mu.Unlock()
	const reads = 20
	for i := 0; i < reads; i++ {
		if code, res := getBody(t, url+"/repairs"); code != http.StatusOK {
			t.Fatalf("repairs read %d: %d %v", i, code, res)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for name, s := range seen {
		if b := written[name].Load(); b < reads*4096 {
			t.Fatalf("fixture: node %s wrote %d bytes over %d reads, want answers over 4 KiB", name, b, reads)
		}
		if len(s) > 1 {
			t.Errorf("node %s saw %d client connections over %d sequential reads, want 1", name, len(s), reads)
		}
	}
}

// getRaw answers a GET's status and body, undecoded.
func getRaw(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestRoutedRepairsPassThrough: the routed /v1/repairs body, whose
// suggestion arrays pass through undecoded, is byte for byte the merged
// map encoded whole through WriteJSON from each node's answer, values
// carrying HTML-escaped and non-ASCII characters included, with and
// without ?limit.
func TestRoutedRepairsPassThrough(t *testing.T) {
	schema, sigma := custFixture(t)
	nodeURL := make(map[string]string)
	var groups []repro.ClusterGroupConfig
	for gi, name := range []string{"g0", "g1"} {
		m, err := repro.NewMonitor(schema, sigma, repro.MonitorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var cs repro.ChangeSet
		for i := 0; i < 12+gi*5; i++ {
			cs.Insert(repro.Tuple{"01", "908", fmt.Sprintf("%07d", i), "Zoë", "Oak <Ave> & Co", fmt.Sprintf("N<Y>%d&é", i%3), "07974"})
		}
		if _, err := m.Apply(&cs); err != nil {
			t.Fatal(err)
		}
		nodeURL[name] = startNode(t, m, nil)
		groups = append(groups, repro.ClusterGroupConfig{Name: name, Primary: newHTTPBackend(nodeURL[name], 10*time.Second)})
	}
	_, url := startRouter(t, groups)

	for _, query := range []string{"", "&limit=3"} {
		code, got := getRaw(t, url+"/repairs?consistency=primary"+query)
		if code != http.StatusOK {
			t.Fatalf("routed repairs%s: %d %s", query, code, got)
		}
		type groupRepairs struct {
			Suggestions []json.RawMessage `json:"suggestions"`
			Total       int               `json:"total"`
			Version     uint64            `json:"version"`
			Node        string            `json:"node"`
		}
		merged := make(map[string]any)
		total := 0
		for name, base := range nodeURL {
			code, body := getRaw(t, base+httpapi.Prefix+"/repairs?"+strings.TrimPrefix(query, "&"))
			if code != http.StatusOK {
				t.Fatalf("node %s repairs: %d %s", name, code, body)
			}
			var g groupRepairs
			if err := json.Unmarshal([]byte(body), &g); err != nil {
				t.Fatal(err)
			}
			if len(g.Suggestions) == 0 || !strings.Contains(body, `\u003c`) {
				t.Fatalf("fixture: node %s answered no HTML-escaped suggestions: %s", name, body)
			}
			g.Node = base
			merged[name] = g
			total += g.Total
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(map[string]any{"groups": merged, "total": total, "consistency": "primary"}); err != nil {
			t.Fatal(err)
		}
		if got != want.String() {
			t.Errorf("routed repairs%s:\ngot  %s\nwant %s", query, got, want.String())
		}
	}
}
