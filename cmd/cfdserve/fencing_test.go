package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"testing"

	"repro"
)

// The fencing wire surface: epoch-stamped mutations, POST /fence, the
// machine-readable "fenced" conflict code, caller-chosen insert keys,
// and the X-Wal-Epoch ship header. This is the contract cfdrouter
// programs against.

// postJSONEpoch posts a JSON body with an X-Cfd-Epoch stamp.
func postJSONEpoch(t *testing.T, url, body, epoch string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Cfd-Epoch", epoch)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&v)
	return resp.StatusCode, v
}

func TestFencingWire(t *testing.T) {
	srv := newTestServer(t)
	api := serveAPI(t, srv)

	// A fresh node is an unfenced primary at epoch 0.
	code, st := getJSONCode(t, api+"/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if fmt.Sprint(st["epoch"]) != "0" || st["fenced"] != false || st["role"] != "primary" {
		t.Fatalf("fresh node stats = epoch %v fenced %v role %v", st["epoch"], st["fenced"], st["role"])
	}

	// A write stamped with the node's current epoch is accepted.
	row := `{"values":["01","908","1111111","Rick","Tree Ave.","NYC","07974"]}`
	if code, res := postJSONEpoch(t, api+"/insert", row, "0"); code != http.StatusOK {
		t.Fatalf("epoch-0 insert: %d %v", code, res)
	}
	// A garbage stamp is the caller's bad request, not a conflict.
	if code, res := postJSONEpoch(t, api+"/update", `{"key":0,"attr":"CT","value":"MH"}`, "zap"); code != http.StatusBadRequest {
		t.Fatalf("bad epoch stamp: %d %v, want 400", code, res)
	}

	// Caller-chosen insert keys are honored and echoed back; reusing a
	// live key is a bad request, not a silent overwrite.
	code, res := postJSON(t, api+"/insert", `{"key":100,"values":["01","908","1111111","Eve","Tree Ave.","NYC","07974"]}`)
	if code != http.StatusOK || fmt.Sprint(res["key"]) != "100" {
		t.Fatalf("keyed insert: %d %v, want key 100", code, res)
	}
	if code, res = postJSON(t, api+"/insert", `{"key":100,"values":["01","908","1111111","Dup","Tree Ave.","NYC","07974"]}`); code != http.StatusBadRequest {
		t.Fatalf("colliding keyed insert: %d %v, want 400", code, res)
	}
	// Batched keyed inserts flow through /apply the same way, and a
	// delete with no key is rejected instead of targeting key 0.
	code, res = postJSON(t, api+"/apply", `{"ops":[{"op":"insert","key":200,"values":["01","908","1111111","Ada","Tree Ave.","NYC","07974"]}]}`)
	if code != http.StatusOK || fmt.Sprint(res["keys"]) != "[200]" {
		t.Fatalf("apply keyed insert: %d %v, want keys [200]", code, res)
	}
	if code, res = postJSON(t, api+"/apply", `{"ops":[{"op":"delete"}]}`); code != http.StatusBadRequest {
		t.Fatalf("keyless delete: %d %v, want 400", code, res)
	}

	// A write stamped AHEAD of the node proves it was deposed: refused
	// with the envelope's "fenced" code and the node's current epoch,
	// and the stamp itself fences the node against all further writes.
	fencedEnv := func(res map[string]any) map[string]any {
		env, _ := res["error"].(map[string]any)
		return env
	}
	code, res = postJSONEpoch(t, api+"/insert", row, "7")
	if env := fencedEnv(res); code != http.StatusForbidden || env["code"] != "fenced" || fmt.Sprint(env["epoch"]) != "0" {
		t.Fatalf("epoch-7 insert: %d %v, want 403 code=fenced epoch=0", code, res)
	}
	if code, res = postJSON(t, api+"/insert", row); code != http.StatusForbidden || fencedEnv(res)["code"] != "fenced" {
		t.Fatalf("unstamped insert on fenced node: %d %v, want 403 code=fenced", code, res)
	}
	if _, st = getJSONCode(t, api+"/stats"); st["fenced"] != true {
		t.Fatalf("stats after fencing stamp = %v", st["fenced"])
	}
	// POST /fence is the explicit form of the same latch: monotonic, so
	// a lower term is a no-op; the node's own epoch never moves (only
	// promotion raises it).
	code, res = postJSON(t, api+"/fence", `{"epoch":1}`)
	if code != http.StatusOK || fmt.Sprint(res["epoch"]) != "0" || res["fenced"] != true {
		t.Fatalf("fence: %d %v", code, res)
	}
}

// TestWALStreamEpochHeader: shipped chunks carry the writer's epoch so
// a follower can refuse a deposed primary's history.
func TestWALStreamEpochHeader(t *testing.T) {
	data, cfds := writeInputs(t)
	srv, err := newServer(data, cfds, repro.MonitorOptions{Durable: filepath.Join(t.TempDir(), "wal"), RetainSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	api := serveAPI(t, srv)

	_, st := getJSONCode(t, api+"/stats")
	wal, ok := st["wal"].(map[string]any)
	if !ok {
		t.Fatalf("no wal block in stats: %v", st)
	}
	resp, err := http.Get(fmt.Sprintf("%s/wal/stream?from=%v,0", api, wal["generation"]))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Wal-Epoch"); got != "0" {
		t.Fatalf("X-Wal-Epoch = %q, want 0", got)
	}
}
