package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
	"repro/internal/httpapi"
	"repro/internal/node"
)

// TestErrorEnvelope pins the uniform error surface: every non-2xx
// response from cfdserve is {"error": {"code", "message"}} with the
// documented code for its status — every route of the table under the
// wrong method, paths outside /v1, oversized bodies — and across node
// roles (primary, read-only standby, fenced).
func TestErrorEnvelope(t *testing.T) {
	// Three nodes, one per role. The standby follows the primary
	// in-process; the fenced node is latched by an epoch-1 stamp.
	data, cfds := writeInputs(t)
	psrv, err := newServer(data, cfds, repro.MonitorOptions{Durable: t.TempDir(), RetainSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer psrv.Close()
	pts := httptest.NewServer(psrv.Handler())
	defer pts.Close()

	sigma, err := repro.ParseCFDSet(figure2CFDs)
	if err != nil {
		t.Fatal(err)
	}
	f, err := repro.FollowMonitor(context.Background(), sigma, repro.MonitorOptions{Durable: t.TempDir()},
		repro.FollowOptions{Source: repro.NewMonitorChunkSource(psrv.Monitor())})
	if err != nil {
		t.Fatal(err)
	}
	fsrv := node.New(f.Monitor(), f)
	fts := httptest.NewServer(fsrv.Handler())
	defer fts.Close()
	defer fsrv.Close()

	xsrv := newTestServer(t)
	xsrv.Monitor().Fence(1)
	xts := httptest.NewServer(xsrv.Handler())
	defer xts.Close()

	do := func(base, method, path, body string) (int, map[string]any) {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
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
		base       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}
	tests := []row{
		{"method not allowed", pts.URL, http.MethodGet, "/v1/insert", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"bad JSON body", pts.URL, http.MethodPost, "/v1/insert", "{", http.StatusBadRequest, "bad_request"},
		{"unversioned spelling", pts.URL, http.MethodPost, "/insert", "{}", http.StatusNotFound, "not_found"},
		{"unknown path", pts.URL, http.MethodGet, "/v1/nope", "", http.StatusNotFound, "not_found"},
		{"oversized body", pts.URL, http.MethodPost, "/v1/apply", strings.Repeat(" ", httpapi.MaxBodyBytes+1), http.StatusRequestEntityTooLarge, "too_large"},
		{"delete unknown key", pts.URL, http.MethodPost, "/v1/delete", `{"key":99999}`, http.StatusNotFound, "not_found"},
		{"violations unknown key", pts.URL, http.MethodGet, "/v1/violations?key=99999", "", http.StatusNotFound, "not_found"},
		{"violations bad cursor", pts.URL, http.MethodGet, "/v1/violations?cursor=zap", "", http.StatusBadRequest, "bad_request"},
		{"violations stale cursor", pts.URL, http.MethodGet, "/v1/violations?cursor=v999:0", "", http.StatusGone, "stale_cursor"},
		{"repairs method not allowed", pts.URL, http.MethodPost, "/v1/repairs", "{}", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"discover NaN min confidence", pts.URL, http.MethodGet, "/v1/discover?min_confidence=NaN", "", http.StatusBadRequest, "bad_request"},
		{"repairs bad trust threshold", pts.URL, http.MethodGet, "/v1/repairs?trust_threshold=2", "", http.StatusBadRequest, "bad_request"},
		{"apply bad trust threshold", pts.URL, http.MethodPost, "/v1/repairs/apply", `{"ids":["c0:1"],"trust_threshold":2}`, http.StatusBadRequest, "bad_request"},
		{"repairs bad cursor", pts.URL, http.MethodGet, "/v1/repairs?cursor=zap", "", http.StatusBadRequest, "bad_request"},
		{"repairs stale cursor", pts.URL, http.MethodGet, "/v1/repairs?cursor=r999:0", "", http.StatusGone, "stale_cursor"},
		{"apply unknown suggestion", pts.URL, http.MethodPost, "/v1/repairs/apply", `{"ids":["zap"]}`, http.StatusNotFound, "not_found"},
		{"apply no ids", pts.URL, http.MethodPost, "/v1/repairs/apply", `{}`, http.StatusBadRequest, "bad_request"},
		{"promote a primary", pts.URL, http.MethodPost, "/v1/promote", "", http.StatusConflict, "conflict"},
		{"standby refuses writes", fts.URL, http.MethodPost, "/v1/insert", `{"values":["01","908","1111111","Eve","Tree Ave.","MH","07974"]}`, http.StatusConflict, "read_only"},
		{"standby refuses snapshot", fts.URL, http.MethodPost, "/v1/snapshot", "", http.StatusConflict, "conflict"},
		{"fenced node refuses writes", xts.URL, http.MethodPost, "/v1/insert", `{"values":["01","908","1111111","Eve","Tree Ave.","MH","07974"]}`, http.StatusForbidden, "fenced"},
		{"fenced node unversioned spelling", xts.URL, http.MethodPost, "/update", `{"key":0,"attr":"CT","value":"MH"}`, http.StatusNotFound, "not_found"},
	}
	// Every route of the table, under the method it does not take.
	for _, rt := range psrv.Routes() {
		wrong := http.MethodPost
		if rt.Method == wrong {
			wrong = http.MethodGet
		}
		tests = append(tests, row{wrong + " " + rt.Path, pts.URL, wrong, httpapi.Prefix + rt.Path, "", http.StatusMethodNotAllowed, "method_not_allowed"})
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			code, res := do(tc.base, tc.method, tc.path, tc.body)
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
			// Only the fenced refusal carries an epoch, so a router can
			// re-sync its view of the group without a second round trip.
			if _, hasEpoch := env["epoch"]; hasEpoch != (tc.wantCode == "fenced") {
				t.Fatalf("epoch presence = %v for code %v: %v", hasEpoch, tc.wantCode, env)
			}
		})
	}
}
