package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/incremental"
	"repro/internal/obs"
)

// throughJSON marshals v and unmarshals it into out, as the wire would.
func throughJSON(t *testing.T, v, out any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatalf("%v in %s", err, b)
	}
}

func TestOpsRoundTrip(t *testing.T) {
	var cs incremental.ChangeSet
	cs.Insert([]string{"a", "b"}).InsertKeyed(7, []string{"c", "d"}).Update(7, "X", "e").Delete(3)
	ops, err := EncodeOps(&cs)
	if err != nil {
		t.Fatal(err)
	}
	var wire []Op
	throughJSON(t, ops, &wire)
	got, err := DecodeOps(wire)
	if err != nil {
		t.Fatal(err)
	}
	again, err := EncodeOps(got)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, ops) {
		t.Fatalf("round trip changed the ops:\n got %+v\nwant %+v", again, ops)
	}
	if got.Ops[0].Keyed() || !got.Ops[1].Keyed() || got.Ops[1].Key != 7 {
		t.Fatalf("keyed-ness lost: %+v", got.Ops)
	}

	key := int64(1)
	for _, bad := range []Op{
		{Op: "delete"},
		{Op: "update", Attr: "X", Value: "v"},
		{Op: "upsert", Key: &key},
		{},
	} {
		if _, err := DecodeOps([]Op{{Op: "insert"}, bad}); err == nil || !strings.HasPrefix(err.Error(), "ops[1]:") {
			t.Errorf("DecodeOps(%+v) = %v, want an ops[1] error", bad, err)
		}
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	d := &incremental.Delta{
		Added:   []incremental.Change{{CFD: 1, Kind: core.ConstViolation, Tuple: 0}, {CFD: 2, Kind: core.VariableViolation, Key: []string{"01", "908"}}},
		Removed: []incremental.Change{{CFD: 0, Kind: core.ConstViolation, Tuple: 9}},
	}
	var wire Delta
	throughJSON(t, EncodeDelta(d), &wire)
	got, err := wire.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("round trip: got %+v, want %+v", got, d)
	}
	// An empty delta is two empty lists on the wire, never null.
	if b, _ := json.Marshal(EncodeDelta(&incremental.Delta{})); string(b) != `{"added":[],"removed":[]}` {
		t.Fatalf("empty delta = %s", b)
	}
	for _, bad := range []Delta{
		{Added: []Change{{Kind: "const"}}},
		{Removed: []Change{{Kind: "fuzzy"}}},
	} {
		if _, err := bad.Decode(); err == nil {
			t.Errorf("Decode(%+v) accepted a malformed change", bad)
		}
	}
}

func TestChunkHeadersRoundTrip(t *testing.T) {
	ch := incremental.ShipChunk{
		Seq: 3, Offset: 4096, Data: []byte("framed records"), Records: 2,
		Closed: true, NextSeq: 4, EndSeq: 5, EndOffset: 77, Epoch: 6,
	}
	rec := httptest.NewRecorder()
	WriteChunk(rec, &ch)
	got, err := ReadChunk(rec.Result())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ch) {
		t.Fatalf("round trip: got %+v, want %+v", got, ch)
	}
	// Every header is required — the fencing epoch above all.
	for name := range rec.Result().Header {
		if !strings.HasPrefix(name, "X-Wal-") {
			continue
		}
		resp := &http.Response{Header: rec.Result().Header.Clone(), Body: http.NoBody}
		resp.Header.Del(name)
		if _, err := ReadChunk(resp); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("ReadChunk without %s = %v, want an error naming it", name, err)
		}
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/apply", nil)
	if _, stamped, err := RequestEpoch(req); stamped || err != nil {
		t.Fatalf("unstamped request: stamped=%v err=%v", stamped, err)
	}
	SetEpoch(req, 9)
	if epoch, stamped, err := RequestEpoch(req); epoch != 9 || !stamped || err != nil {
		t.Fatalf("stamped request: %d %v %v", epoch, stamped, err)
	}
	req.Header.Set(EpochHeader, "zap")
	if _, _, err := RequestEpoch(req); err == nil {
		t.Fatal("garbage epoch stamp accepted")
	}
}

// TestErrorFromResponse: whatever a server writes through WriteError /
// WriteRoleError comes back as an *Error with the same code, and the
// codes peers dispatch on unwrap to their sentinels.
func TestErrorFromResponse(t *testing.T) {
	cause := errors.New("boom")
	tests := []struct {
		name     string
		write    func(w http.ResponseWriter)
		status   int
		code     string
		sentinel error
	}{
		{"bad_request", func(w http.ResponseWriter) { WriteError(w, 400, cause) }, 400, "bad_request", nil},
		{"not_found", func(w http.ResponseWriter) { WriteError(w, 404, cause) }, 404, "not_found", nil},
		{"method_not_allowed", func(w http.ResponseWriter) { WriteError(w, 405, cause) }, 405, "method_not_allowed", nil},
		{"conflict", func(w http.ResponseWriter) { WriteError(w, 409, cause) }, 409, "conflict", nil},
		{"stale_cursor", func(w http.ResponseWriter) { WriteError(w, 410, cause) }, 410, "stale_cursor", incremental.ErrSegmentGone},
		{"too_large", func(w http.ResponseWriter) { WriteError(w, 413, cause) }, 413, "too_large", nil},
		{"internal", func(w http.ResponseWriter) { WriteError(w, 500, cause) }, 500, "internal", nil},
		{"bad_gateway", func(w http.ResponseWriter) { WriteError(w, 502, cause) }, 502, "bad_gateway", nil},
		{"fenced", func(w http.ResponseWriter) {
			WriteRoleError(w, fmt.Errorf("apply: %w", incremental.ErrFenced), 7, 400)
		}, 403, "fenced", incremental.ErrFenced},
		{"read_only", func(w http.ResponseWriter) {
			WriteRoleError(w, fmt.Errorf("apply: %w", incremental.ErrReadOnly), 7, 400)
		}, 409, "read_only", incremental.ErrReadOnly},
		{"role fallback", func(w http.ResponseWriter) { WriteRoleError(w, cause, 7, 404) }, 404, "not_found", nil},
		{"foreign body", func(w http.ResponseWriter) { http.Error(w, "<html>nginx</html>", 503) }, 503, "", nil},
		{"pre-/v1 flat form", func(w http.ResponseWriter) {
			WriteJSON(w, 403, map[string]string{"error": "fenced", "code": "fenced"})
		}, 403, "", nil},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			tc.write(rec)
			err := ErrorFromResponse(rec.Result())
			var e *Error
			if !errors.As(err, &e) {
				t.Fatalf("not an *Error: %v", err)
			}
			if e.Status != tc.status || e.Code != tc.code || e.Message == "" {
				t.Fatalf("got %+v, want status %d code %q and a message", e, tc.status, tc.code)
			}
			if (e.Epoch != nil) != (tc.code == "fenced") || (e.Epoch != nil && *e.Epoch != 7) {
				t.Fatalf("epoch = %v for code %q", e.Epoch, tc.code)
			}
			for _, s := range []error{incremental.ErrFenced, incremental.ErrReadOnly, incremental.ErrSegmentGone} {
				if errors.Is(err, s) != (s == tc.sentinel) {
					t.Fatalf("errors.Is(%v, %v) = %v", err, s, !errors.Is(err, s))
				}
			}
		})
	}
}

// TestHandlerAndReadBody drives the serving mechanics on a two-route
// table: dispatch under /v1 only, 405/404/400 in the envelope, and the
// per-path series. (The 413 needs a real 64 MiB body; the daemons' error
// matrices send one.)
func TestHandlerAndReadBody(t *testing.T) {
	reg := obs.NewRegistry()
	h := Handler("demo", reg, []Route{
		GET("/ping", func(w http.ResponseWriter, r *http.Request) { WriteJSON(w, 200, "pong") }, ""),
		POST("/echo", func(w http.ResponseWriter, r *http.Request) {
			var v map[string]any
			if ReadBody(w, r, &v) {
				WriteJSON(w, 200, v)
			}
		}, ""),
	})
	do := func(method, path string, body io.Reader) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, body))
		var env struct {
			Error Error `json:"error"`
		}
		_ = json.Unmarshal(rec.Body.Bytes(), &env)
		return rec.Code, env.Error.Code
	}
	for _, tc := range []struct {
		method, path string
		body         io.Reader
		status       int
		code         string
	}{
		{"GET", "/v1/ping", nil, 200, ""},
		{"POST", "/v1/echo", strings.NewReader(`{"a":1}`), 200, ""},
		{"POST", "/v1/ping", nil, 405, "method_not_allowed"},
		{"GET", "/ping", nil, 404, "not_found"},
		{"GET", "/v1/", nil, 404, "not_found"},
		{"POST", "/v1/echo", strings.NewReader(`{`), 400, "bad_request"},
	} {
		if status, code := do(tc.method, tc.path, tc.body); status != tc.status || code != tc.code {
			t.Errorf("%s %s = %d %q, want %d %q", tc.method, tc.path, status, code, tc.status, tc.code)
		}
	}
	var scrape bytes.Buffer
	if err := reg.WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`demo_http_requests_total{path="/v1/ping"} 2`,
		`demo_http_errors_total{path="/v1/ping"} 1`,
		`demo_http_requests_total{path="/v1/echo"} 2`,
		`demo_http_errors_total{path="/v1/echo"} 1`,
		`demo_http_request_seconds_count{path="/v1/echo"} 2`,
	} {
		if !strings.Contains(scrape.String(), want+"\n") {
			t.Errorf("scrape missing %q:\n%s", want, scrape.String())
		}
	}
	if strings.Contains(scrape.String(), `path="/ping"`) {
		t.Error("a series exists for a path outside /v1")
	}
}

func TestPage(t *testing.T) {
	parse := func(query string) (Page, bool, int) {
		rec := httptest.NewRecorder()
		p, ok := ParsePage(rec, httptest.NewRequest("GET", "/v1/x?"+query, nil), "v")
		return p, ok, rec.Code
	}
	if p, ok, _ := parse(""); !ok || p.Limit != 0 || p.Offset != 0 {
		t.Fatalf("bare request: %+v %v", p, ok)
	}
	for _, bad := range []string{"limit=0", "limit=x", "cursor=zap", "cursor=r3:1", "cursor=v3:-1"} {
		if _, ok, code := parse(bad); ok || code != 400 {
			t.Errorf("?%s: ok=%v code=%d, want a 400", bad, ok, code)
		}
	}
	p, ok, _ := parse("limit=5&cursor=" + Cursor("v", 3, 10))
	if !ok || p.Limit != 5 || p.Offset != 10 {
		t.Fatalf("cursor page: %+v %v", p, ok)
	}
	if rec := httptest.NewRecorder(); p.Stale(rec, "v", 3) {
		t.Fatal("cursor at the current version called stale")
	}
	if rec := httptest.NewRecorder(); !p.Stale(rec, "v", 4) || rec.Code != http.StatusGone {
		t.Fatalf("cursor from v3 against v4: code %d, want 410", rec.Code)
	}

	req := httptest.NewRequest("GET", "/v1/x", nil)
	rec := httptest.NewRecorder()
	if NotModified(rec, req, "v", 3) || rec.Header().Get("ETag") != `"v3"` {
		t.Fatalf("unconditional read: ETag %q", rec.Header().Get("ETag"))
	}
	req.Header.Set("If-None-Match", `"v3"`)
	if rec = httptest.NewRecorder(); !NotModified(rec, req, "v", 3) || rec.Code != http.StatusNotModified {
		t.Fatalf("conditional read at the same version: code %d, want 304", rec.Code)
	}
	if rec = httptest.NewRecorder(); NotModified(rec, req, "v", 4) {
		t.Fatal("conditional read served 304 across a version change")
	}
}
