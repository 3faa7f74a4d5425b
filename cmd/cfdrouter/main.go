// cfdrouter fronts a sharded cfdserve cluster: a consistent-hash ring
// partitions the tuple key space across independent shard groups (each
// a cfdserve primary plus optional hot standbys), every incoming
// ChangeSet is split by owning shard and fanned out in parallel, and
// the per-shard violation deltas merge into one response. Writes scale
// with the number of groups because each group commits to its own WAL.
//
// Usage:
//
//	cfdrouter -http :8100 \
//	    -shard g0=http://p0:8081,http://f0:8085 \
//	    -shard g1=http://p1:8082
//
// Every mutation the router sends is stamped with the epoch it believes
// current for that group (X-Cfd-Epoch), so a deposed primary refuses
// the write instead of forking history; a 403 whose envelope carries
// code "fenced" makes the router re-query the node's epoch and retry
// once, which heals the case where an operator promoted a standby
// behind a stable primary address. POST /v1/promote fails a group over
// to its first standby and re-points writes with no re-seeding: the
// standby already holds the replicated state.
//
// The endpoints are the route table in routes below (rendered into
// docs/operations.md): the cfdserve mutation shapes minus the choice of
// node, cluster-wide reads, the ownership probe and failover. Failures
// use the same error envelope as cfdserve.
//
// Reads fan out: /v1/violations, /v1/repairs and /v1/stats?shards=1
// read every group in parallel and accept ?consistency=primary|any.
// "primary" (the default) serves every group's read from its current
// primary; "any" round-robins the primary and the group's standbys,
// skipping any standby that is fenced behind the group's epoch or
// lagging the primary's WAL tail by more than -max-read-lag bytes — so
// hot standbys absorb read traffic without ever serving a
// stale-beyond-bound or deposed history. A violation total asks each
// group for a one-row page and keeps only its total. A point read
// (/v1/violations?key=K) goes to the key's owning group alone and its
// answer passes through undecoded; a standby's 404 there is retried on
// the primary, since the standby may only lag the insert that made the
// key.
//
// Atomicity is per shard group: a batch spanning groups may commit on
// some and fail on others, in which case the response names the failed
// groups and the delta covers the committed ones. Variable (multi-
// tuple) violations are likewise detected within each group's key
// range; keep tuples that must be compared on one shard group, or run
// a single cfdserve.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof-addr serves the DefaultServeMux handlers
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/internal/cliutil"
	"repro/internal/httpapi"
	"repro/internal/obs"
)

var processStart = time.Now()

// --- httpBackend: one shard-group node over the cfdserve wire ---

// httpBackend adapts a cfdserve node to the router's ClusterBackend:
// mutations go through POST /v1/apply stamped with X-Cfd-Epoch, the
// epoch and key watermark come from GET /v1/stats, failover runs over
// POST /v1/promote and POST /v1/fence. A refusal's envelope unwraps to
// the sentinel error ("fenced", "read_only") the router dispatches on.
type httpBackend struct {
	base string
	hc   *http.Client
}

func newHTTPBackend(base string, timeout time.Duration) *httpBackend {
	return &httpBackend{base: strings.TrimRight(base, "/"), hc: &http.Client{Timeout: timeout}}
}

// do sends one request to an endpoint path below /v1. A nil body means
// a bare request (GET or an empty POST). The caller hands the answer to
// drain.
func (b *httpBackend) do(ctx context.Context, method, path string, body any, epoch *uint64) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.base+httpapi.Prefix+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if epoch != nil {
		httpapi.SetEpoch(req, *epoch)
	}
	resp, err := b.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("shard %s: %w", b.base, err)
	}
	return resp, nil
}

// drain reads a shard answer to EOF and closes it. net/http returns the
// connection to its keep-alive pool only then; a decoded answer still
// has its trailing newline and, when chunked, its terminator unread, and
// closing it early would make the next exchange dial again.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// call runs one JSON exchange against an endpoint path below /v1,
// decoding a 2xx answer into out (when non-nil).
func (b *httpBackend) call(ctx context.Context, method, path string, body any, epoch *uint64, out any) error {
	resp, err := b.do(ctx, method, path, body, epoch)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("shard %s%s: %w", b.base, path, httpapi.ErrorFromResponse(resp))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// fetch runs one GET and returns the node's answer undecoded: its status
// and whole body, whatever the status.
func (b *httpBackend) fetch(ctx context.Context, path string) (int, []byte, error) {
	resp, err := b.do(ctx, http.MethodGet, path, nil, nil)
	if err != nil {
		return 0, nil, err
	}
	defer drain(resp)
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("shard %s%s: %w", b.base, path, err)
	}
	return resp.StatusCode, body, nil
}

func (b *httpBackend) Apply(ctx context.Context, epoch uint64, cs *repro.ChangeSet) (*repro.ViolationDelta, error) {
	// The router assigned every insert's key before splitting (keyed
	// ops), so the shard honors it rather than allocating its own.
	ops, err := httpapi.EncodeOps(cs)
	if err != nil {
		return nil, err
	}
	var res struct {
		Delta httpapi.Delta `json:"delta"`
	}
	if err := b.call(ctx, http.MethodPost, "/apply", map[string]any{"ops": ops}, &epoch, &res); err != nil {
		return nil, err
	}
	return res.Delta.Decode()
}

func (b *httpBackend) stats(ctx context.Context) (st httpapi.NodeStats, err error) {
	err = b.call(ctx, http.MethodGet, "/stats", nil, nil, &st)
	return st, err
}

func (b *httpBackend) Epoch(ctx context.Context) (uint64, error) {
	st, err := b.stats(ctx)
	return st.Epoch, err
}

func (b *httpBackend) NextKey(ctx context.Context) (int64, error) {
	st, err := b.stats(ctx)
	return st.NextKey, err
}

func (b *httpBackend) Promote(ctx context.Context) (uint64, error) {
	var res struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := b.call(ctx, http.MethodPost, "/promote", nil, nil, &res); err != nil {
		return 0, err
	}
	return res.Epoch, nil
}

func (b *httpBackend) Fence(ctx context.Context, epoch uint64) error {
	return b.call(ctx, http.MethodPost, "/fence", map[string]any{"epoch": epoch}, nil, nil)
}

// ReadPosition implements the read fan-out's staleness probe over the
// wire: the node's epoch and — for a following standby — its replication
// byte lag, both straight from GET /v1/stats. A primary (no replica
// block, or one already promoted) is its own tail: lag 0.
func (b *httpBackend) ReadPosition(ctx context.Context) (repro.ClusterReadPosition, error) {
	st, err := b.stats(ctx)
	if err != nil {
		return repro.ClusterReadPosition{}, err
	}
	pos := repro.ClusterReadPosition{Epoch: st.Epoch}
	if st.Replica != nil && st.Replica.Following {
		pos.LagBytes = st.Replica.LagBytes
	}
	return pos, nil
}

// --- the daemon ---

type routerServer struct {
	rt     *repro.ClusterRouter
	vnodes int
	reg    *repro.MetricsRegistry

	routedOps, shardFails, readErrs *obs.Counter
	// Fan-out read latency against shard nodes, by endpoint.
	readViolations, readStats, readRepairs *obs.Histogram
}

func newRouterServer(rt *repro.ClusterRouter, vnodes int, reg *repro.MetricsRegistry) *routerServer {
	readDur := func(endpoint string) *obs.Histogram {
		return reg.DurationHistogram("cfdrouter_read_seconds", "Fan-out read latency against shard nodes, by endpoint.", obs.L("endpoint", endpoint))
	}
	return &routerServer{
		rt: rt, vnodes: vnodes, reg: reg,
		routedOps:      reg.Counter("cfdrouter_routed_ops_total", "Mutation ops routed to shard groups."),
		shardFails:     reg.Counter("cfdrouter_shard_failures_total", "Sub-batches refused or failed by a shard group."),
		readErrs:       reg.Counter("cfdrouter_read_errors_total", "Fan-out reads against shard nodes that failed."),
		readViolations: readDur("/violations"), readStats: readDur("/stats"), readRepairs: readDur("/repairs"),
	}
}

// routes is the router's endpoint table.
func (s *routerServer) routes() []httpapi.Route {
	get, post := httpapi.GET, httpapi.POST
	return append(httpapi.MutationRoutes(s.apply, s.rt.Owner), []httpapi.Route{
		get("/violations", s.violations,
			`cluster-wide violation count, summed over one one-row page per group; ?key=K passes the owning group's point read through (a standby's 404 retried on the primary): ?consistency=primary|any`),
		get("/repairs", s.repairs,
			`each group's live repair suggestions under its name and node URL: ?consistency=, ?trust_threshold= and ?limit= forwarded`),
		get("/stats", s.stats, `per-group epoch and standbys, next_key, vnodes; ?shards=1 adds one node /v1/stats per group (?consistency= applies)`),
		get("/ring", s.ring, `ring members; ?key=K answers which group owns a key`),
		post("/promote", s.promote, `fail a group over to its first standby: {"group": "g0"} → {"group", "epoch", "promoted"}`),
		get("/metrics", httpapi.MetricsHandler(s.reg), `Prometheus text exposition of the router's registry`),
	}...)
}

func (s *routerServer) handler() http.Handler {
	return httpapi.Handler("cfdrouter", s.reg, s.routes())
}

// apply is the router's write path under the shared mutation endpoints.
// A partial failure (some groups committed, some refused) is the
// router's defining error shape: 502 naming the failed groups, with the
// delta of the committed ones alongside so the caller can reconcile.
func (s *routerServer) apply(w http.ResponseWriter, r *http.Request, cs *repro.ChangeSet, _ int) (*repro.ViolationDelta, bool) {
	delta, err := s.rt.Apply(r.Context(), cs)
	var ae *repro.ClusterApplyError
	switch {
	case err == nil:
		s.routedOps.Add(uint64(cs.Len()))
		return delta, true
	case errors.As(err, &ae):
		s.shardFails.Add(uint64(len(ae.Failed)))
		failed := make(map[string]string, len(ae.Failed))
		for name, ferr := range ae.Failed {
			failed[name] = ferr.Error()
		}
		body := map[string]any{"error": httpapi.Envelope(http.StatusBadGateway, err), "failed": failed}
		if delta != nil {
			body["delta"] = httpapi.EncodeDelta(delta)
		}
		httpapi.WriteJSON(w, http.StatusBadGateway, body)
	default:
		httpapi.WriteError(w, http.StatusBadRequest, err)
	}
	return nil, false
}

// readMode parses ?consistency=, answering 400 on a junk mode.
func readMode(w http.ResponseWriter, r *http.Request) (repro.ClusterReadConsistency, bool) {
	mode, err := repro.ParseClusterReadConsistency(r.URL.Query().Get("consistency"))
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, err)
	}
	return mode, err == nil
}

// readGroup runs one read against the node mode picks for the group,
// timed under the endpoint's histogram. The status classifies a
// failure: 500 when no node could be picked, 502 when the node failed.
func (s *routerServer) readGroup(ctx context.Context, name string, mode repro.ClusterReadConsistency, dur *obs.Histogram, read func(*httpBackend) error) (int, error) {
	be, err := s.rt.PickRead(ctx, name, mode)
	if err != nil {
		return http.StatusInternalServerError, fmt.Errorf("group %s: %w", name, err)
	}
	hb, ok := be.(*httpBackend)
	if !ok {
		return http.StatusInternalServerError, fmt.Errorf("group %s: read target is not an HTTP backend", name)
	}
	start := time.Now()
	err = read(hb)
	dur.ObserveSince(start)
	if err != nil {
		s.readErrs.Inc()
		return http.StatusBadGateway, fmt.Errorf("group %s: %w", name, err)
	}
	return http.StatusOK, nil
}

// groupRead is one group's answer to a fan-out read: its value, or the
// error and the status readGroup classified it under.
type groupRead[T any] struct {
	name   string
	val    T
	status int
	err    error
}

// fanOut runs read once per group through readGroup, every group in
// parallel, and returns the answers in sorted-group order.
func fanOut[T any](ctx context.Context, s *routerServer, mode repro.ClusterReadConsistency, dur *obs.Histogram, read func(*httpBackend) (T, error)) []groupRead[T] {
	names := s.rt.Groups()
	out := make([]groupRead[T], len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := &out[i]
			g.name = name
			g.status, g.err = s.readGroup(ctx, name, mode, dur, func(hb *httpBackend) (err error) {
				g.val, err = read(hb)
				return err
			})
		}()
	}
	wg.Wait()
	return out
}

// parseKey reads a tuple key from a query value, answering 400 on junk.
func parseKey(w http.ResponseWriter, kq string) (int64, bool) {
	key, err := strconv.ParseInt(kq, 10, 64)
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad key %q: %w", kq, err))
	}
	return key, err == nil
}

// violations answers the cluster-wide violation count: the sum of one
// one-row page per group, of which only the total is kept. Totals are
// disjoint because each group owns its key range. ?key=K is a point
// read on the owning group alone.
func (s *routerServer) violations(w http.ResponseWriter, r *http.Request) {
	mode, ok := readMode(w, r)
	if !ok {
		return
	}
	if kq := r.URL.Query().Get("key"); kq != "" {
		if key, ok := parseKey(w, kq); ok {
			s.pointRead(w, r, mode, key)
		}
		return
	}
	groups := make(map[string]int)
	total := 0
	for _, g := range fanOut(r.Context(), s, mode, s.readViolations, func(hb *httpBackend) (int, error) {
		var res struct {
			Total int `json:"total"`
		}
		err := hb.call(r.Context(), http.MethodGet, "/violations?limit=1", nil, nil, &res)
		return res.Total, err
	}) {
		if g.err != nil {
			httpapi.WriteError(w, g.status, g.err)
			return
		}
		groups[g.name] = g.val
		total += g.val
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{"groups": groups, "total": total, "consistency": mode.String()})
}

// pointRead passes the owning group's answer for one key through
// undecoded, status and body. A standby that answers 404 may only lag
// the insert that created the key, so its 404 is retried once on the
// group's primary, whose answer is authoritative.
func (s *routerServer) pointRead(w http.ResponseWriter, r *http.Request, mode repro.ClusterReadConsistency, key int64) {
	name := s.rt.Owner(key)
	path := "/violations?key=" + strconv.FormatInt(key, 10)
	var status int
	var body []byte
	code, err := s.readGroup(r.Context(), name, mode, s.readViolations, func(hb *httpBackend) (err error) {
		status, body, err = hb.fetch(r.Context(), path)
		if err == nil && status == http.StatusNotFound {
			if primary, ok := s.rt.Primary(name).(*httpBackend); ok && primary != hb {
				status, body, err = primary.fetch(r.Context(), path)
			}
		}
		return err
	})
	if err != nil {
		httpapi.WriteError(w, code, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body) // the client hanging up mid-answer is not ours to handle
}

// repairs merges one GET /v1/repairs per group under per-group labels.
// The merged view is deliberately unpaginated — suggestion IDs and
// versions are per-node, so each group's list arrives whole (or
// ?limit-truncated) and accepted IDs must be applied against the owning
// group's node, named in its "node" field.
func (s *routerServer) repairs(w http.ResponseWriter, r *http.Request) {
	mode, ok := readMode(w, r)
	if !ok {
		return
	}
	fwd := url.Values{}
	for _, k := range []string{"trust_threshold", "limit"} {
		if v := r.URL.Query().Get(k); v != "" {
			fwd.Set(k, v)
		}
	}
	path := "/repairs"
	if len(fwd) > 0 {
		path += "?" + fwd.Encode()
	}
	type groupRepairs struct {
		Suggestions json.RawMessage `json:"suggestions"`
		Total       int             `json:"total"`
		Version     uint64          `json:"version"`
		Node        string          `json:"-"`
	}
	reads := fanOut(r.Context(), s, mode, s.readRepairs, func(hb *httpBackend) (res groupRepairs, err error) {
		err = hb.call(r.Context(), http.MethodGet, path, nil, nil, &res)
		res.Node = hb.base
		return res, err
	})
	for _, g := range reads {
		if g.err != nil {
			httpapi.WriteError(w, g.status, g.err)
			return
		}
	}
	// Each group's suggestion array goes out as its node wrote it
	// (compact, HTML-escaped), not through encoding/json, which would
	// validate and compact every element a second time. Around it go the
	// bytes WriteJSON writes for the equivalent map: keys in sorted order
	// (fanOut answers in sorted-group order), strings quoted as
	// json.Marshal quotes them.
	total := 0
	b := append(appendQuoted([]byte(`{"consistency":`), mode.String()), `,"groups":{`...)
	for i, g := range reads {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(appendQuoted(b, g.name), `:{"suggestions":`...)
		if len(g.val.Suggestions) == 0 {
			b = append(b, "null"...)
		}
		b = append(b, g.val.Suggestions...)
		b = strconv.AppendInt(append(b, `,"total":`...), int64(g.val.Total), 10)
		b = strconv.AppendUint(append(b, `,"version":`...), g.val.Version, 10)
		b = append(appendQuoted(append(b, `,"node":`...), g.val.Node), '}')
		total += g.val.Total
	}
	b = append(strconv.AppendInt(append(b, `},"total":`...), int64(total), 10), "}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b) // the client hanging up mid-answer is not ours to handle
}

// appendQuoted appends s as json.Marshal quotes it.
func appendQuoted(b []byte, s string) []byte {
	enc, _ := json.Marshal(s) // a string always encodes
	return append(b, enc...)
}

// stats answers the router's own view; ?shards=1 additionally fans one
// GET /v1/stats out per group, routed like any other read. A group
// whose read failed shows the error in its place.
func (s *routerServer) stats(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{
		"groups":         s.rt.Status(),
		"next_key":       s.rt.NextKey(),
		"vnodes":         s.vnodes,
		"uptime_seconds": time.Since(processStart).Seconds(),
	}
	if sq := r.URL.Query().Get("shards"); sq != "" && sq != "0" && sq != "false" {
		mode, ok := readMode(w, r)
		if !ok {
			return
		}
		shards := make(map[string]any)
		for _, g := range fanOut(r.Context(), s, mode, s.readStats, func(hb *httpBackend) (raw map[string]any, err error) {
			if err = hb.call(r.Context(), http.MethodGet, "/stats", nil, nil, &raw); err == nil {
				raw["node"] = hb.base
			}
			return raw, err
		}) {
			if g.err != nil {
				shards[g.name] = map[string]any{"error": g.err.Error()}
			} else {
				shards[g.name] = g.val
			}
		}
		out["shards"] = shards
	}
	httpapi.WriteJSON(w, http.StatusOK, out)
}

// ring is the ownership probe: which group would serve a key.
func (s *routerServer) ring(w http.ResponseWriter, r *http.Request) {
	if kq := r.URL.Query().Get("key"); kq != "" {
		if key, ok := parseKey(w, kq); ok {
			httpapi.WriteJSON(w, http.StatusOK, map[string]any{"key": key, "owner": s.rt.Owner(key)})
		}
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{"members": s.rt.Groups(), "vnodes": s.vnodes})
}

// promote fails a group over to its first standby and re-points writes.
func (s *routerServer) promote(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Group string `json:"group"`
	}
	if !httpapi.ReadBody(w, r, &req) {
		return
	}
	epoch, err := s.rt.Promote(r.Context(), req.Group)
	if err != nil {
		httpapi.WriteError(w, http.StatusConflict, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{"group": req.Group, "epoch": epoch, "promoted": true})
}

// shardDef is one -shard name=primaryURL[,standbyURL...] definition.
type shardDef struct {
	name     string
	primary  string
	standbys []string
}

func parseShard(v string) (shardDef, error) {
	name, urls, ok := strings.Cut(v, "=")
	if !ok || name == "" || urls == "" {
		return shardDef{}, fmt.Errorf("bad -shard %q: want name=primaryURL[,standbyURL...]", v)
	}
	parts := strings.Split(urls, ",")
	for _, p := range parts {
		if !strings.HasPrefix(p, "http://") && !strings.HasPrefix(p, "https://") {
			return shardDef{}, fmt.Errorf("bad -shard %q: %q is not an http(s) URL", v, p)
		}
	}
	return shardDef{name: name, primary: parts[0], standbys: parts[1:]}, nil
}

func main() {
	var shards []shardDef
	var (
		httpAddr  = flag.String("http", "", "serve the router API on this address (required)")
		vnodes    = flag.Int("vnodes", 0, "virtual nodes per shard group on the hash ring (0 = default)")
		timeout   = flag.Duration("shard-timeout", 30*time.Second, "per-request timeout talking to a shard node")
		maxLag    = flag.Int64("max-read-lag", 0, "max WAL byte lag before ?consistency=any skips a standby (0 = default 4MiB)")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this second, private address (off when empty)")
		logLevel  = flag.String("log-level", "info", "log threshold: debug, info, warn or error")
		logJSON   = flag.Bool("log-json", false, "write logs to stderr as JSON lines instead of text")
	)
	flag.Func("shard", "shard group as name=primaryURL[,standbyURL...]; repeat per group (required)", func(v string) error {
		def, err := parseShard(v)
		if err != nil {
			return err
		}
		shards = append(shards, def)
		return nil
	})
	flag.Parse()
	lg, err := cliutil.NewLogger(*logLevel, *logJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfdrouter:", err)
		os.Exit(2)
	}
	if *httpAddr == "" || len(shards) == 0 {
		fmt.Fprintln(os.Stderr, "cfdrouter: -http and at least one -shard are required")
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *pprofAddr != "" {
		go func() {
			lg.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				lg.Error("pprof server failed", "error", err)
			}
		}()
	}

	groups := make([]repro.ClusterGroupConfig, 0, len(shards))
	for _, def := range shards {
		cfg := repro.ClusterGroupConfig{Name: def.name, Primary: newHTTPBackend(def.primary, *timeout)}
		for _, u := range def.standbys {
			cfg.Standbys = append(cfg.Standbys, newHTTPBackend(u, *timeout))
		}
		groups = append(groups, cfg)
	}
	// The router reads each primary's epoch and key watermark at boot,
	// so every shard must be reachable here.
	rt, err := repro.NewClusterRouter(ctx, groups, repro.ClusterOptions{VNodes: *vnodes, MaxReadLag: *maxLag})
	if err != nil {
		lg.Error("startup failed", "error", err)
		os.Exit(2)
	}
	srv := newRouterServer(rt, *vnodes, repro.DefaultMetrics())

	lis, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		lg.Error("listen failed", "error", err)
		os.Exit(2)
	}
	fmt.Printf("routing %d shard groups on %s (next key %d)\n", len(groups), lis.Addr(), rt.NextKey())
	if err := httpapi.Serve(ctx, lis, srv.handler()); err != nil {
		lg.Error("server failed", "error", err)
		os.Exit(1)
	}
}
