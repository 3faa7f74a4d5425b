package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
)

// violResp is the /violations wire shape the read-path endpoints serve.
type violResp struct {
	PerCFD []struct {
		CFD          int        `json:"cfd"`
		ConstTuples  []int64    `json:"const_tuples"`
		VariableKeys [][]string `json:"variable_keys"`
	} `json:"per_cfd"`
	Total      int    `json:"total"`
	Version    uint64 `json:"version"`
	NextCursor string `json:"next_cursor"`
}

func readViolations(t *testing.T, api string, path, ifNoneMatch string) (int, string, *violResp) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, api+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, resp.Header.Get("ETag"), nil
	}
	var vr violResp
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatalf("GET %s: %v in %q", path, err, body)
	}
	return resp.StatusCode, resp.Header.Get("ETag"), &vr
}

func mutate(t *testing.T, api string, path string, body any) {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(api+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d", path, resp.StatusCode)
	}
}

// TestViolationsETag: the violation view's version backs an ETag, so a
// poller that passes If-None-Match gets a bodyless 304 until a write
// actually changes the violation set — and gets fresh content after.
func TestViolationsETag(t *testing.T) {
	srv := newTestServer(t)
	api := serveAPI(t, srv)

	code, etag, _ := readViolations(t, api, "/violations", "")
	if code != http.StatusOK || etag == "" {
		t.Fatalf("first read: code=%d etag=%q", code, etag)
	}
	code, etag2, _ := readViolations(t, api, "/violations", etag)
	if code != http.StatusNotModified {
		t.Fatalf("conditional re-read: code=%d, want 304", code)
	}
	if etag2 != etag {
		t.Fatalf("304 carried ETag %q, want %q", etag2, etag)
	}

	// A write that changes the violation set invalidates the tag.
	mutate(t, api, "/insert", map[string]any{
		"values": []string{"01", "908", "1111111", "Rick", "Tree Ave.", "NYC", "07974"},
	})
	code, etag3, vr := readViolations(t, api, "/violations", etag)
	if code != http.StatusOK || vr == nil || vr.Total != 2 {
		t.Fatalf("post-write conditional read: code=%d resp=%+v", code, vr)
	}
	if etag3 == etag {
		t.Fatal("ETag unchanged across a violation-changing write")
	}
}

// TestViolationsPagination: pages under ?limit= cover exactly the
// unpaginated set, cursors are version-pinned, and a cursor from before
// a write is refused with 410 Gone rather than silently skewed.
func TestViolationsPagination(t *testing.T) {
	srv := newTestServer(t)
	api := serveAPI(t, srv)
	mutate(t, api, "/insert", map[string]any{
		"values": []string{"01", "908", "1111111", "Rick", "Tree Ave.", "NYC", "07974"},
	})

	_, _, all := readViolations(t, api, "/violations", "")
	if all.Total != 2 {
		t.Fatalf("unpaginated total = %d, want 2", all.Total)
	}

	var got int
	cursor := ""
	for page := 0; ; page++ {
		path := "/violations?limit=1"
		if cursor != "" {
			path += "&cursor=" + cursor
		}
		code, _, vr := readViolations(t, api, path, "")
		if code != http.StatusOK {
			t.Fatalf("page %d: code=%d", page, code)
		}
		for _, p := range vr.PerCFD {
			got += len(p.ConstTuples) + len(p.VariableKeys)
		}
		if vr.NextCursor == "" {
			break
		}
		cursor = vr.NextCursor
		if page > 4 {
			t.Fatal("pagination did not terminate")
		}
	}
	if got != all.Total {
		t.Fatalf("pages covered %d violations, unpaginated has %d", got, all.Total)
	}

	// First page again, then write: its cursor must now be refused.
	_, _, first := readViolations(t, api, "/violations?limit=1", "")
	if first.NextCursor == "" {
		t.Fatal("limit=1 page has no next_cursor")
	}
	mutate(t, api, "/update", map[string]any{"key": 2, "attr": "CT", "value": "MH"})
	code, _, _ := readViolations(t, api, "/violations?limit=1&cursor="+first.NextCursor, "")
	if code != http.StatusGone {
		t.Fatalf("stale cursor: code=%d, want 410", code)
	}
}

// TestViolationsPointLookup: ?key= is the drill-down path — it answers
// from the per-key stores without materializing the full view.
func TestViolationsPointLookup(t *testing.T) {
	srv := newTestServer(t)
	api := serveAPI(t, srv)
	mutate(t, api, "/insert", map[string]any{
		"values": []string{"01", "908", "1111111", "Rick", "Tree Ave.", "NYC", "07974"},
	})

	get := func(path string) (int, map[string]json.RawMessage) {
		t.Helper()
		resp, err := http.Get(api + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]json.RawMessage
		_ = json.NewDecoder(resp.Body).Decode(&m)
		return resp.StatusCode, m
	}

	code, m := get("/violations?key=2")
	if code != http.StatusOK {
		t.Fatalf("point lookup: code=%d", code)
	}
	var total int
	if err := json.Unmarshal(m["total"], &total); err != nil || total != 2 {
		t.Fatalf("point lookup total = %s, want 2", m["total"])
	}
	// Mike (key 0) shares Rick's (CC, AC, PN) group, so the lookup must
	// surface the variable violation from the member's side too.
	code, m = get("/violations?key=0")
	if code != http.StatusOK {
		t.Fatalf("group member: code=%d", code)
	}
	if err := json.Unmarshal(m["total"], &total); err != nil || total != 1 {
		t.Fatalf("group member total = %s, want 1", m["total"])
	}
	// Joe (key 1) exists but violates nothing.
	code, m = get("/violations?key=1")
	if code != http.StatusOK {
		t.Fatalf("clean key: code=%d", code)
	}
	if err := json.Unmarshal(m["total"], &total); err != nil || total != 0 {
		t.Fatalf("clean key total = %s, want 0", m["total"])
	}
	if code, _ := get("/violations?key=999"); code != http.StatusNotFound {
		t.Fatalf("absent key: code=%d, want 404", code)
	}
	if code, _ := get("/violations?key=abc"); code != http.StatusBadRequest {
		t.Fatalf("junk key: code=%d, want 400", code)
	}
	if code, _ := get("/violations?cfd=99"); code != http.StatusBadRequest {
		t.Fatalf("out-of-range cfd filter: code=%d, want 400", code)
	}
}
