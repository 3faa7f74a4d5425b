package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/httpapi"
	"repro/internal/node"
)

// The end-to-end replication test: a durable primary serving /wal over
// real HTTP, a follower tailing it through the httpSource, reads on
// both, promotion over POST /promote, writes after.

func postJSON(t *testing.T, url string, body string) (int, map[string]any) {
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

func getJSONCode(t *testing.T, url string) (int, map[string]any) {
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

func TestHTTPReplication(t *testing.T) {
	data, cfds := writeInputs(t)
	pdir := filepath.Join(t.TempDir(), "pwal")
	psrv, err := newServer(data, cfds, repro.MonitorOptions{Durable: pdir, RetainSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer psrv.Close()
	pts := httptest.NewServer(psrv.Handler())
	defer pts.Close()
	papi := pts.URL + httpapi.Prefix

	// Boot the follower over the wire exactly as -follow does.
	ctx := context.Background()
	fdir := filepath.Join(t.TempDir(), "fwal")
	src := newHTTPSource(pts.URL)
	sigma, err := repro.ParseCFDSet(figure2CFDs)
	if err != nil {
		t.Fatal(err)
	}
	f, err := repro.FollowMonitor(ctx, sigma, repro.MonitorOptions{Durable: fdir}, repro.FollowOptions{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	fsrv := node.New(f.Monitor(), f)
	fapi := serveAPI(t, fsrv)

	// A dirty write on the primary ships to the follower.
	code, res := postJSON(t, papi+"/insert", `{"values":["01","908","1111111","Rick","Tree Ave.","NYC","07974"]}`)
	if code != http.StatusOK {
		t.Fatalf("primary insert: %d %v", code, res)
	}
	if _, err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	code, fv := getJSONCode(t, fapi+"/violations")
	if code != http.StatusOK {
		t.Fatalf("follower violations: %d", code)
	}
	_, pv := getJSONCode(t, papi+"/violations")
	if fmt.Sprint(fv["total"]) != fmt.Sprint(pv["total"]) || fmt.Sprint(fv["total"]) == "0" {
		t.Fatalf("follower total %v, primary %v", fv["total"], pv["total"])
	}

	// Replica stats: present, caught up, following.
	code, st := getJSONCode(t, fapi+"/stats")
	if code != http.StatusOK {
		t.Fatalf("follower stats: %d", code)
	}
	rep, ok := st["replica"].(map[string]any)
	if !ok {
		t.Fatalf("follower stats has no replica block: %v", st)
	}
	if rep["following"] != true || rep["promoted"] != false || fmt.Sprint(rep["lag_bytes"]) != "0" {
		t.Fatalf("replica block = %v", rep)
	}
	if _, hasRep := getStats(t, papi); hasRep {
		t.Fatal("primary stats has a replica block")
	}

	// Mutations and snapshot rolls are conflicts on a follower.
	if code, res = postJSON(t, fapi+"/insert", `{"values":["01","908","1111111","Eve","Tree Ave.","MH","07974"]}`); code != http.StatusConflict {
		t.Fatalf("follower insert: %d %v, want 409", code, res)
	}
	if code, res = postJSON(t, fapi+"/apply", `{"ops":[{"op":"delete","key":0}]}`); code != http.StatusConflict {
		t.Fatalf("follower apply: %d %v, want 409", code, res)
	}
	if code, res = postJSON(t, fapi+"/snapshot", ``); code != http.StatusConflict {
		t.Fatalf("follower snapshot: %d %v, want 409", code, res)
	}
	// /promote on a primary is a conflict too.
	if code, res = postJSON(t, papi+"/promote", ``); code != http.StatusConflict {
		t.Fatalf("primary promote: %d %v, want 409", code, res)
	}

	// Stream cursor validation.
	if code, _ = getJSONCode(t, papi+"/wal/stream?from=zap"); code != http.StatusBadRequest {
		t.Fatalf("bad cursor: %d, want 400", code)
	}
	if code, _ = getJSONCode(t, papi+"/wal/stream?from=99,0"); code != http.StatusInternalServerError {
		t.Fatalf("future cursor: %d, want 500", code)
	}

	// Promote the follower; it starts accepting writes at its boundary.
	code, res = postJSON(t, fapi+"/promote", ``)
	if code != http.StatusOK || res["promoted"] != true {
		t.Fatalf("promote: %d %v", code, res)
	}
	code, res = postJSON(t, fapi+"/promote", ``) // idempotent
	if code != http.StatusOK {
		t.Fatalf("re-promote: %d %v", code, res)
	}
	code, res = postJSON(t, fapi+"/update", `{"key":2,"attr":"CT","value":"MH"}`)
	if code != http.StatusOK {
		t.Fatalf("post-promotion update: %d %v", code, res)
	}
	if fsrv.Monitor().ViolationCount() != 0 {
		t.Fatalf("healing update left %d violations", fsrv.Monitor().ViolationCount())
	}
	if code, _ = getJSONCode(t, fapi+"/stats"); code != http.StatusOK {
		t.Fatal("stats after promotion failed")
	}
	if err := fsrv.Close(); err != nil {
		t.Fatal(err)
	}
}

// getStats fetches /stats and reports whether a replica block exists.
func getStats(t *testing.T, base string) (map[string]any, bool) {
	t.Helper()
	_, st := getJSONCode(t, base+"/stats")
	_, ok := st["replica"]
	return st, ok
}

// TestWALEndpointsRequireDurable: a memory-only node has nothing to ship.
func TestWALEndpointsRequireDurable(t *testing.T) {
	srv := newTestServer(t)
	api := serveAPI(t, srv)
	if code, _ := getJSONCode(t, api+"/wal/snapshot"); code != http.StatusConflict {
		t.Fatalf("/wal/snapshot on memory node: %d, want 409", code)
	}
	if code, _ := getJSONCode(t, api+"/wal/stream?from=0,0"); code != http.StatusConflict {
		t.Fatalf("/wal/stream on memory node: %d, want 409", code)
	}
}

// TestHTTPSourceGone: a 410 from the primary surfaces as
// ErrWALSegmentGone through the wire, which is what triggers a resync.
func TestHTTPSourceGone(t *testing.T) {
	data, cfds := writeInputs(t)
	pdir := filepath.Join(t.TempDir(), "pwal")
	// Zero retention: one roll strands any older cursor.
	psrv, err := newServer(data, cfds, repro.MonitorOptions{Durable: pdir})
	if err != nil {
		t.Fatal(err)
	}
	defer psrv.Close()
	pts := httptest.NewServer(psrv.Handler())
	defer pts.Close()
	if err := psrv.Monitor().ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	src := newHTTPSource(pts.URL)
	_, err = src.Chunk(context.Background(), 1, 0, 1<<20)
	if !errors.Is(err, repro.ErrWALSegmentGone) {
		t.Fatalf("stale cursor error = %v, want ErrWALSegmentGone", err)
	}
}
