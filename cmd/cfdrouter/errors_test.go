package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/httpapi"
)

// TestRouterErrorEnvelope is the router half of the uniform error
// contract: every non-2xx response is {"error": {"code", "message"}}
// with the documented code — every route of the table under the wrong
// method, paths outside /v1 and oversized bodies included.
func TestRouterErrorEnvelope(t *testing.T) {
	schema, sigma := custFixture(t)
	m, err := repro.NewMonitor(schema, sigma, repro.MonitorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv, api := startRouter(t, []repro.ClusterGroupConfig{
		{Name: "g0", Primary: newHTTPBackend(startNode(t, m, nil), 10*time.Second)},
	})
	url := strings.TrimSuffix(api, httpapi.Prefix)

	do := func(method, path, body string) (int, map[string]any) {
		t.Helper()
		req, err := http.NewRequest(method, url+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&v)
		return resp.StatusCode, v
	}

	type row struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}
	tests := []row{
		{"method not allowed", http.MethodGet, "/v1/insert", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"bad JSON body", http.MethodPost, "/v1/apply", "{", http.StatusBadRequest, "bad_request"},
		{"unversioned spelling", http.MethodPost, "/apply", "{}", http.StatusNotFound, "not_found"},
		{"unknown path", http.MethodGet, "/v1/nope", "", http.StatusNotFound, "not_found"},
		{"oversized body", http.MethodPost, "/v1/apply", strings.Repeat(" ", httpapi.MaxBodyBytes+1), http.StatusRequestEntityTooLarge, "too_large"},
		{"keyless delete op", http.MethodPost, "/v1/apply", `{"ops":[{"op":"delete"}]}`, http.StatusBadRequest, "bad_request"},
		{"unknown op", http.MethodPost, "/v1/apply", `{"ops":[{"op":"merge"}]}`, http.StatusBadRequest, "bad_request"},
		{"bad ring key", http.MethodGet, "/v1/ring?key=zap", "", http.StatusBadRequest, "bad_request"},
		{"bad point-read key", http.MethodGet, "/v1/violations?key=zap", "", http.StatusBadRequest, "bad_request"},
		{"bad read consistency", http.MethodGet, "/v1/violations?consistency=quorum", "", http.StatusBadRequest, "bad_request"},
		{"repairs method not allowed", http.MethodPost, "/v1/repairs", "{}", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"repairs bad consistency", http.MethodGet, "/v1/repairs?consistency=quorum", "", http.StatusBadRequest, "bad_request"},
		{"promote unknown group", http.MethodPost, "/v1/promote", `{"group":"g9"}`, http.StatusConflict, "conflict"},
		{"metrics method not allowed", http.MethodPost, "/v1/metrics", "{}", http.StatusMethodNotAllowed, "method_not_allowed"},
	}
	// Every route of the table, under the method it does not take.
	for _, rt := range srv.routes() {
		wrong := http.MethodPost
		if rt.Method == wrong {
			wrong = http.MethodGet
		}
		tests = append(tests, row{wrong + " " + rt.Path, wrong, httpapi.Prefix + rt.Path, "", http.StatusMethodNotAllowed, "method_not_allowed"})
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			code, res := do(tc.method, tc.path, tc.body)
			if code != tc.wantStatus {
				t.Fatalf("status = %d %v, want %d", code, res, tc.wantStatus)
			}
			env, ok := res["error"].(map[string]any)
			if !ok {
				t.Fatalf("no error envelope: %v", res)
			}
			if env["code"] != tc.wantCode {
				t.Fatalf("code = %v, want %q", env["code"], tc.wantCode)
			}
			if msg, _ := env["message"].(string); msg == "" {
				t.Fatalf("empty message: %v", env)
			}
		})
	}

	// The partial-failure shape keeps its envelope alongside the named
	// groups: fence the node so a routed write fails, and the 502 body
	// carries code bad_gateway plus the per-group failure map.
	m.Fence(7)
	code, res := do(http.MethodPost, "/v1/insert", `{"values":["01","908","1111111","Mike","Tree Ave.","MH","07974"]}`)
	env, _ := res["error"].(map[string]any)
	if code != http.StatusBadGateway || env == nil || env["code"] != "bad_gateway" {
		t.Fatalf("routed write onto fenced shard: %d %v, want 502 bad_gateway", code, res)
	}
	failed, ok := res["failed"].(map[string]any)
	if !ok || fmt.Sprint(failed["g0"]) == "" {
		t.Fatalf("502 body names no failed groups: %v", res)
	}
}
