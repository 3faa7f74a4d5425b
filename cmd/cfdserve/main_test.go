package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/httpapi"
	"repro/internal/node"
)

const custCSV = `CC,AC,PN,NM,STR,CT,ZIP
01,908,1111111,Mike,Tree Ave.,MH,07974
01,212,2222222,Joe,Elm Str.,NYC,01202
`

const figure2CFDs = `
[CC=44, ZIP] -> [STR]
[CC, AC, PN] -> [STR, CT, ZIP]
[CC=01, AC=908, PN] -> [STR, CT=MH, ZIP]
[CC=01, AC=212, PN] -> [STR, CT=NYC, ZIP]
`

// writeInputs drops the cust fixture into a temp dir and returns the paths.
func writeInputs(t *testing.T) (data, cfds string) {
	t.Helper()
	dir := t.TempDir()
	data = filepath.Join(dir, "cust.csv")
	cfds = filepath.Join(dir, "cfds.txt")
	if err := os.WriteFile(data, []byte(custCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfds, []byte(figure2CFDs), 0o644); err != nil {
		t.Fatal(err)
	}
	return data, cfds
}

func newTestServer(t *testing.T) *node.Server {
	t.Helper()
	data, cfds := writeInputs(t)
	srv, err := newServer(data, cfds, repro.MonitorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// serveAPI serves the node for the test's lifetime and returns the
// versioned API root every request path hangs off.
func serveAPI(t *testing.T, srv *node.Server) string {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL + httpapi.Prefix
}

func TestHTTPAPI(t *testing.T) {
	srv := newTestServer(t)
	api := serveAPI(t, srv)

	getJSON := func(path string, v any) {
		t.Helper()
		resp, err := http.Get(api + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	postJSON := func(path string, body any, v any) int {
		t.Helper()
		b, _ := json.Marshal(body)
		resp, err := http.Post(api+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if v != nil {
			if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}

	var stats struct {
		Tuples     int   `json:"tuples"`
		Violations int64 `json:"violations"`
		Satisfied  bool  `json:"satisfied"`
	}
	getJSON("/stats", &stats)
	if stats.Tuples != 2 || !stats.Satisfied {
		t.Fatalf("initial stats = %+v", stats)
	}

	var ins struct {
		Key   int64         `json:"key"`
		Delta httpapi.Delta `json:"delta"`
	}
	code := postJSON("/insert", map[string]any{
		"values": []string{"01", "908", "1111111", "Rick", "Tree Ave.", "NYC", "07974"},
	}, &ins)
	if code != http.StatusOK || ins.Key != 2 {
		t.Fatalf("insert: code=%d resp=%+v", code, ins)
	}
	if len(ins.Delta.Added) != 2 {
		t.Fatalf("insert delta = %+v, want 2 added", ins.Delta)
	}

	var viol struct {
		Total int `json:"total"`
	}
	getJSON("/violations", &viol)
	if viol.Total != 2 {
		t.Fatalf("violations total = %d, want 2", viol.Total)
	}

	var upd struct {
		Delta httpapi.Delta `json:"delta"`
	}
	if code := postJSON("/update", map[string]any{"key": 2, "attr": "CT", "value": "MH"}, &upd); code != http.StatusOK {
		t.Fatalf("update: code=%d", code)
	}
	if len(upd.Delta.Removed) != 2 {
		t.Fatalf("update delta = %+v, want 2 removed", upd.Delta)
	}

	if code := postJSON("/delete", map[string]any{"key": 2}, nil); code != http.StatusOK {
		t.Fatalf("delete: code=%d", code)
	}
	if code := postJSON("/delete", map[string]any{"key": 2}, nil); code != http.StatusNotFound {
		t.Fatalf("double delete: code=%d, want 404", code)
	}
	if code := postJSON("/insert", map[string]any{"values": []string{"x"}}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad arity insert: code=%d, want 400", code)
	}
	// GET on a POST endpoint is rejected.
	resp, err := http.Get(api + "/insert")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /insert: code=%d, want 405", resp.StatusCode)
	}

	getJSON("/stats", &stats)
	if stats.Tuples != 2 || !stats.Satisfied {
		t.Fatalf("final stats = %+v", stats)
	}
}

// TestHTTPApply: POST /apply runs a ChangeSet atomically and reports the
// inserted keys and the combined delta.
func TestHTTPApply(t *testing.T) {
	srv := newTestServer(t)
	api := serveAPI(t, srv)

	post := func(body any) (int, map[string]json.RawMessage) {
		t.Helper()
		b, _ := json.Marshal(body)
		resp, err := http.Post(api+"/apply", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}

	code, out := post(map[string]any{"ops": []map[string]any{
		{"op": "insert", "values": []string{"01", "908", "1111111", "Rick", "Tree Ave.", "NYC", "07974"}},
		{"op": "update", "key": 2, "attr": "CT", "value": "MH"},
		{"op": "delete", "key": 1},
	}})
	if code != http.StatusOK {
		t.Fatalf("apply: code=%d body=%v", code, out)
	}
	var keys []int64
	if err := json.Unmarshal(out["keys"], &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != 2 {
		t.Fatalf("keys = %v, want [2]", keys)
	}
	if srv.Monitor().Len() != 2 || !srv.Monitor().Satisfied() {
		t.Fatalf("after batch: len=%d satisfied=%v", srv.Monitor().Len(), srv.Monitor().Satisfied())
	}

	// An invalid op rejects the whole vector.
	code, _ = post(map[string]any{"ops": []map[string]any{
		{"op": "update", "key": 2, "attr": "CT", "value": "NYC"},
		{"op": "delete", "key": 999},
	}})
	if code != http.StatusBadRequest {
		t.Fatalf("invalid batch: code=%d, want 400", code)
	}
	if got, _ := srv.Monitor().Get(2); got[5] != "MH" {
		t.Fatal("rejected batch partially applied")
	}
	// Unknown op name.
	code, _ = post(map[string]any{"ops": []map[string]any{{"op": "upsert"}}})
	if code != http.StatusBadRequest {
		t.Fatalf("unknown op: code=%d, want 400", code)
	}
}

func TestNewServerErrors(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "cust.csv")
	if err := os.WriteFile(data, []byte(custCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := newServer("missing.csv", "missing.txt", repro.MonitorOptions{}); err == nil {
		t.Error("missing data file must error")
	}
	if _, err := newServer(data, "missing.txt", repro.MonitorOptions{}); err == nil {
		t.Error("missing CFD file must error")
	}
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("not a cfd"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := newServer(data, bad, repro.MonitorOptions{}); err == nil {
		t.Error("bad CFD file must error")
	}
}

// TestDurableServerRestart: a -wal-dir server journals its writes, and a
// restarted server resumes the acknowledged state instead of reloading
// the CSV.
func TestDurableServerRestart(t *testing.T) {
	data, cfds := writeInputs(t)
	walDir := filepath.Join(t.TempDir(), "wal")
	opts := repro.MonitorOptions{Durable: walDir}

	srv, err := newServer(data, cfds, opts)
	if err != nil {
		t.Fatal(err)
	}
	api := serveAPI(t, srv)
	insert := func(name, ct string) {
		t.Helper()
		code, res := postJSON(t, api+"/apply", fmt.Sprintf(
			`{"ops":[{"op":"insert","values":["01","908","1111111",%q,"Tree Ave.",%q,"07974"]}]}`, name, ct))
		if code != http.StatusOK {
			t.Fatalf("apply: %d %v", code, res)
		}
	}
	insert("Rick", "NYC")
	if code, res := postJSON(t, api+"/snapshot", ""); code != http.StatusOK || fmt.Sprint(res["generation"]) != "2" {
		t.Fatalf("snapshot: %d %v, want generation 2", code, res)
	}
	insert("Ann", "MH")
	if _, st := getJSONCode(t, api+"/stats"); st["wal"] == nil {
		t.Fatalf("stats missing wal block: %v", st)
	}
	wantViolations := srv.Monitor().ViolationCount()
	wantLen := srv.Monitor().Len()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, err := newServer(data, cfds, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if !srv2.Monitor().Recovered() {
		t.Fatal("restarted server did not recover from the WAL dir")
	}
	if srv2.Monitor().Len() != wantLen || srv2.Monitor().ViolationCount() != wantViolations {
		t.Fatalf("recovered %d tuples / %d violations, want %d / %d",
			srv2.Monitor().Len(), srv2.Monitor().ViolationCount(), wantLen, wantViolations)
	}
}

// TestSnapshotEndpoint: the admin endpoint rolls the generation on a
// durable server and 409s on a memory-only one.
func TestSnapshotEndpoint(t *testing.T) {
	data, cfds := writeInputs(t)
	srv, err := newServer(data, cfds, repro.MonitorOptions{Durable: filepath.Join(t.TempDir(), "wal")})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	api := serveAPI(t, srv)

	resp, err := http.Post(api+"/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || snap.Generation != 2 {
		t.Fatalf("POST /snapshot: code=%d generation=%d", resp.StatusCode, snap.Generation)
	}

	resp, err = http.Get(api + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /snapshot: code=%d, want 405", resp.StatusCode)
	}

	var stats struct {
		WAL *struct {
			Generation uint64 `json:"generation"`
		} `json:"wal"`
	}
	resp, err = http.Get(api + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.WAL == nil || stats.WAL.Generation != 2 {
		t.Fatalf("stats.wal = %+v, want generation 2", stats.WAL)
	}

	plain := newTestServer(t)
	apiPlain := serveAPI(t, plain)
	resp, err = http.Post(apiPlain+"/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("POST /snapshot on memory-only server: code=%d, want 409", resp.StatusCode)
	}
}

// TestGracefulShutdown: cancelling the serve context must flush in-flight
// responses and return cleanly instead of dropping connections.
func TestGracefulShutdown(t *testing.T) {
	srv := newTestServer(t)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- httpapi.Serve(ctx, lis, srv.Handler()) }()

	url := "http://" + lis.Addr().String() + httpapi.Prefix
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats before shutdown: code=%d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serveHTTP did not return after context cancellation")
	}
	if _, err := http.Get(url + "/stats"); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}

// TestDiscoverEndpoint: GET /discover mines a snapshot of the live
// instance — mined CFDs follow it across writes, config query params
// select the mining configuration, and invalid configs are rejected.
func TestDiscoverEndpoint(t *testing.T) {
	srv := newTestServer(t)
	api := serveAPI(t, srv)

	type minedEntry struct {
		LHS     []string `json:"lhs"`
		RHS     []string `json:"rhs"`
		IsFD    bool     `json:"is_fd"`
		Support []int    `json:"support"`
		CFD     string   `json:"cfd"`
	}
	type discoverResp struct {
		Tuples int          `json:"tuples"`
		Count  int          `json:"count"`
		Mined  []minedEntry `json:"mined"`
	}
	get := func(path string, wantCode int) discoverResp {
		t.Helper()
		resp, err := http.Get(api + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("GET %s: code=%d, want %d", path, resp.StatusCode, wantCode)
		}
		var out discoverResp
		if wantCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	hasFD := func(r discoverResp, lhs, rhs string) bool {
		for _, m := range r.Mined {
			if m.IsFD && len(m.LHS) == 1 && m.LHS[0] == lhs && m.RHS[0] == rhs {
				return true
			}
		}
		return false
	}

	// Two singleton groups per pair: nothing has enough evidence yet.
	first := get("/discover", http.StatusOK)
	if first.Tuples != 2 {
		t.Fatalf("tuples = %d, want 2", first.Tuples)
	}
	if hasFD(first, "AC", "CT") {
		t.Fatalf("AC → CT mined from singleton groups: %+v", first.Mined)
	}

	// A second 908/MH tuple gives AC → CT a supported testing group; the
	// next /discover mines it as an FD.
	body := strings.NewReader(`{"values":["01","908","1111111","Rick","Tree Ave.","MH","07974"]}`)
	resp, err := http.Post(api+"/insert", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	second := get("/discover", http.StatusOK)
	if !hasFD(second, "AC", "CT") {
		t.Fatalf("AC → CT should be mined after the insert: %+v", second.Mined)
	}
	if second.Count <= first.Count {
		t.Errorf("count did not grow: %d -> %d", first.Count, second.Count)
	}

	// A stricter config: evidence 2 < min_support 3.
	strict := get("/discover?min_support=3", http.StatusOK)
	if hasFD(strict, "AC", "CT") {
		t.Errorf("min_support=3 should drop the evidence-2 FD: %+v", strict.Mined)
	}

	// Invalid configs and methods are rejected; max_lhs is capped on the
	// serving surface (the lattice is exponential in it).
	get("/discover?min_confidence=2", http.StatusBadRequest)
	get("/discover?max_patterns=-1", http.StatusBadRequest)
	get("/discover?max_lhs=zap", http.StatusBadRequest)
	get("/discover?max_lhs=9", http.StatusBadRequest)
	// Zero values normalize to the defaults and serve fine.
	if norm := get("/discover?max_lhs=0&min_support=0", http.StatusOK); norm.Count != strict.Count && norm.Tuples != 3 {
		t.Errorf("normalized default config should serve: %+v", norm)
	}
	if resp, err := http.Post(api+"/discover", "application/json", strings.NewReader("{}")); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST /discover: code=%d, want 405", resp.StatusCode)
		}
	}
}

// TestStatsShape pins the full JSON shape of GET /stats: the exact
// top-level key set for memory and durable nodes, the wal sub-document,
// and the build identity block.
func TestStatsShape(t *testing.T) {
	keysOf := func(m map[string]any) []string {
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	fetch := func(srv *node.Server) map[string]any {
		t.Helper()
		api := serveAPI(t, srv)
		resp, err := http.Get(api + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	st := fetch(newTestServer(t))
	want := []string{"build", "epoch", "fenced", "next_key", "role", "satisfied", "tuples", "uptime_seconds", "violations"}
	if got := keysOf(st); !reflect.DeepEqual(got, want) {
		t.Fatalf("memory /stats keys = %v, want %v", got, want)
	}
	if up, ok := st["uptime_seconds"].(float64); !ok || up <= 0 {
		t.Fatalf("uptime_seconds = %v", st["uptime_seconds"])
	}
	build, ok := st["build"].(map[string]any)
	if !ok {
		t.Fatalf("build = %v", st["build"])
	}
	if v, _ := build["go"].(string); !strings.HasPrefix(v, "go1") {
		t.Fatalf("build.go = %v", build["go"])
	}
	if v, _ := build["module"].(string); v != "repro" {
		t.Fatalf("build.module = %v", build["module"])
	}

	data, cfds := writeInputs(t)
	dsrv, err := newServer(data, cfds, repro.MonitorOptions{Durable: filepath.Join(t.TempDir(), "wal")})
	if err != nil {
		t.Fatal(err)
	}
	defer dsrv.Close()
	st = fetch(dsrv)
	want = []string{"build", "epoch", "fenced", "next_key", "role", "satisfied", "tuples", "uptime_seconds", "violations", "wal"}
	if got := keysOf(st); !reflect.DeepEqual(got, want) {
		t.Fatalf("durable /stats keys = %v, want %v", got, want)
	}
	wal, ok := st["wal"].(map[string]any)
	if !ok {
		t.Fatalf("wal = %v", st["wal"])
	}
	wantWal := []string{"dir", "generation", "recovered", "segment_records"}
	if got := keysOf(wal); !reflect.DeepEqual(got, wantWal) {
		t.Fatalf("stats.wal keys = %v, want %v", got, wantWal)
	}
}

// TestMetricsEndpoint: GET /metrics serves the node's registry in the
// Prometheus text format — the monitor's hot-path series, the HTTP
// middleware's per-endpoint series, and enough distinct families for a
// dashboard to work with.
func TestMetricsEndpoint(t *testing.T) {
	srv := newTestServer(t)
	api := serveAPI(t, srv)

	body := strings.NewReader(`{"values":["01","908","1111111","Rick","Tree Ave.","NYC","07974"]}`)
	resp, err := http.Post(api+"/insert", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// A first scrape, so the second sees /metrics' own request counted.
	resp, err = http.Get(api + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err = http.Get(api + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: code=%d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	// The CSV seed is itself one Apply batch of two inserts, so the
	// counters start at the seed's values.
	for _, want := range []string{
		`cfd_apply_ops_total{op="insert"} 3`,
		"cfd_apply_batches_total 2",
		"cfd_apply_seconds_count 2",
		"cfd_violations_added_total 2",
		"cfd_tuples 3",
		"cfd_violations 2",
		`cfdserve_http_requests_total{path="/v1/insert"} 1`,
		`cfdserve_http_requests_total{path="/v1/metrics"} 1`,
		`cfdserve_http_request_seconds_count{path="/v1/insert"} 1`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("scrape missing %q:\n%s", want, text)
		}
	}
	if families := strings.Count(text, "# TYPE "); families < 15 {
		t.Errorf("scrape has %d families, want >= 15:\n%s", families, text)
	}

	resp, err = http.Post(api+"/metrics", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics: code=%d, want 405", resp.StatusCode)
	}
}

// TestHTTPErrorCounter: the middleware counts >= 400 responses.
func TestHTTPErrorCounter(t *testing.T) {
	srv := newTestServer(t)
	api := serveAPI(t, srv)
	resp, err := http.Post(api+"/delete", "application/json", strings.NewReader(`{"key": 999}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(api + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), `cfdserve_http_errors_total{path="/v1/delete"} 1`+"\n") {
		t.Errorf("404 not counted as an error:\n%s", raw)
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
