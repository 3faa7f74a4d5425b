package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"
)

// setupReps is how often a run sets the topology up; setup_s is the
// median. The last one is kept and driven.
const setupReps = 3

// A run samples its cold path several times and first_answer_s is the
// best sample: what delays an exec, a snapshot load or an attach on a
// shared box (scheduling, page-ins, a neighbour's burst) only ever adds
// time, and across ten runs the median of three samples spread three times
// wider than their minimum. Recovery and standby sync are cheap enough for
// five samples; an attach costs two seconds and evicts, so three.
const (
	coldReps   = 5
	attachReps = 3
)

// topology is the set of processes under test for one serving workload.
type topology struct {
	entry    *proc   // where traffic goes: the cfdserve, or the cfdrouter
	shards   []*proc // shard primaries (one for a single node)
	follower *proc   // g0's hot standby (routed only)
	router   *proc
	keys     []int64 // keys of the loaded tuples, in row order
}

func (t *topology) procs() []*proc {
	ps := append([]*proc(nil), t.shards...)
	if t.follower != nil {
		ps = append(ps, t.follower)
	}
	if t.router != nil {
		ps = append(ps, t.router)
	}
	return ps
}

func (t *topology) kill() {
	for _, p := range t.procs() {
		p.kill()
	}
}

// serveArgs is the stated flush policy of every gated workload: durable,
// buffered WAL — no -fsync, no group-commit flags — and no periodic
// snapshot. fsync does not repeat on a shared disk (198 to 360 req/s
// across four identical runs), and a snapshot roll is three of them: at
// the default -snapshot-records 10000 (ops, so every 312 ChangeSets) a
// 25 to 65 ms roll stalls 7 % of the paced writes, and p95 swung between
// 2 and 14 ms across ten runs. So nothing on a gated path syncs; fsync
// (wal.fsync_us) and the roll (incremental.snapshot_ms, from forced
// snapshots) are per-layer probes.
func serveArgs(dataPath, cfdPath, walDir string) []string {
	return []string{"-data", dataPath, "-cfds", cfdPath, "-wal-dir", walDir, "-snapshot-records", "0",
		"-http", "127.0.0.1:0", "-log-level", "warn"}
}

// setup generates the inputs and brings the topology up, loaded. The
// elapsed time is one setup_s sample: generate + boot + seed, without the
// go build and without attach.
func (h *harness) setup(w workload, rep int, report *report, sb *spanBuf, parent int64) (*topology, *inputs, time.Duration, error) {
	dir := filepath.Join(h.state, fmt.Sprintf("setup%d", rep))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	gs := sb.begin("gen.generate", parent, 0)
	in, err := generate(w, h.seed, dir)
	sb.end(gs)
	if err != nil {
		return nil, nil, 0, err
	}
	addSample(report.layer, "gen.generate_ms", 1e3*time.Since(t0).Seconds())
	top := &topology{}
	bs := sb.begin("setup.boot", parent, 0)
	defer sb.end(bs)
	if !w.routed {
		wal := filepath.Join(dir, "wal")
		p, err := h.spawn("cfdserve", "cfdserve", serveArgs(in.csvPath, in.cfdPath, wal)...)
		if err != nil {
			return nil, nil, 0, err
		}
		p.walDir = wal
		top.entry, top.shards = p, []*proc{p}
		top.keys = make([]int64, len(in.data.Tuples))
		for i := range top.keys {
			top.keys[i] = int64(i) // a CSV load keys tuples 0..n-1 in row order
		}
		return top, in, time.Since(t0), nil
	}
	for _, g := range []string{"g0", "g1"} {
		wal := filepath.Join(dir, g+"-wal")
		p, err := h.spawn(g+"-primary", "cfdserve", serveArgs(in.emptyCSV, in.cfdPath, wal)...)
		if err != nil {
			return nil, nil, 0, err
		}
		p.walDir = wal
		top.shards = append(top.shards, p)
	}
	if top.follower, err = h.spawnFollower("g0-follower", top.shards[0], in, filepath.Join(dir, "g0f-wal")); err != nil {
		return nil, nil, 0, err
	}
	top.router, err = h.spawn("cfdrouter", "cfdrouter", "-http", "127.0.0.1:0", "-log-level", "warn",
		"-shard", "g0="+top.shards[0].url()+","+top.follower.url(), "-shard", "g1="+top.shards[1].url())
	if err != nil {
		return nil, nil, 0, err
	}
	top.entry = top.router
	// Seed through the router, 500 inserts a batch; it assigns the keys.
	for lo := 0; lo < len(in.data.Tuples); lo += 500 {
		hi := min(lo+500, len(in.data.Tuples))
		ops := make([]wireOp, 0, hi-lo)
		for _, t := range in.data.Tuples[lo:hi] {
			ops = append(ops, wireOp{Op: "insert", Values: t})
		}
		var ack struct {
			Keys []int64 `json:"keys"`
		}
		if err := postJSON(top.router.url()+"/v1/apply", map[string]any{"ops": ops}, &ack); err != nil {
			return nil, nil, 0, fmt.Errorf("seeding through the router: %w", err)
		}
		if len(ack.Keys) != hi-lo {
			return nil, nil, 0, fmt.Errorf("seeding through the router: %d inserts sent, %d keys returned", hi-lo, len(ack.Keys))
		}
		top.keys = append(top.keys, ack.Keys...)
	}
	return top, in, time.Since(t0), nil
}

func (h *harness) spawnFollower(name string, primary *proc, in *inputs, walDir string) (*proc, error) {
	return h.spawn(name, "cfdserve", "-cfds", in.cfdPath, "-wal-dir", walDir, "-follow", primary.url(),
		"-snapshot-records", "0", "-http", "127.0.0.1:0", "-log-level", "warn")
}

type nodeStats struct {
	Tuples     int `json:"tuples"`
	Violations int `json:"violations"`
	WAL        struct {
		Recovered bool `json:"recovered"`
	} `json:"wal"`
	Replica *struct {
		LagBytes    int64 `json:"lag_bytes"`
		LagSegments int64 `json:"lag_segments"`
	} `json:"replica"`
}

// awaitCaughtUp polls a follower until it is at lag 0 holding what its
// primary holds.
func awaitCaughtUp(follower, primary *proc, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	var fs, ps nodeStats
	for {
		if err := getJSON(primary.url()+"/v1/stats", &ps); err != nil {
			return err
		}
		if err := getJSON(follower.url()+"/v1/stats", &fs); err != nil {
			return err
		}
		if fs.Replica != nil && fs.Replica.LagBytes == 0 && fs.Replica.LagSegments == 0 &&
			fs.Tuples == ps.Tuples && fs.Violations == ps.Violations {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s did not reach lag 0 with %s's state within %v (follower %+v, primary %+v)",
				follower.name, primary.name, limit, fs, ps)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// runServe drives one serving workload. The order is fixed: set up,
// sample the cold path that needs a quiet node, warm up, closed loop,
// paced, oracle, then (serve-write) crash and recover.
func (h *harness) runServe(w workload) (*report, error) {
	rep := newReport()
	main := h.tr.buf()
	root := main.begin("workload."+w.name, 0, 0)

	// Set-up, several times; the last topology is driven.
	var top *topology
	var in *inputs
	var setups []float64
	sp := main.begin("phase.setup", root, 0)
	for i := 0; i < setupReps; i++ {
		if top != nil {
			top.kill()
		}
		t, inp, took, err := h.setup(w, i, rep, main, sp)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		top, in = t, inp
		setups = append(setups, took.Seconds())
	}
	main.end(sp)
	rep.e2e["setup_s"] = sample{median(setups), len(setups)}
	h.progress("set up %d times", setupReps)

	conns := make([]*conn, numConns)
	for i := range conns {
		g := newOpGen(w, h.seed, i, numConns, in, int64(len(top.keys)))
		g.seedShadow(top.keys, in.data.Tuples, i, numConns)
		conns[i] = newConn(i, top.entry.url(), g, h.tr)
	}
	// all is what a phase runs: the two traffic connections, plus one
	// GET /v1/discover a second on its own connection where the Miner is
	// attached.
	all := conns
	if w.attach {
		side := newConn(numConns, top.entry.url(), newOpGen(w, h.seed, numConns, numConns+1, in, 0), h.tr)
		side.side = true
		all = append(append([]*conn(nil), conns...), side)
	}
	closedLoop := func(parent int64, start time.Time, d time.Duration) func(*conn) {
		return func(c *conn) { c.closedLoop(parent, start, d) }
	}

	var first []float64
	fp := main.begin("phase.first_answer", root, 0)
	switch {
	case w.attach:
		// The first attach is the one the traffic runs on; the others are
		// sampled after it (below), so the eviction they need does not
		// count towards the node's peak memory.
		s, err := h.sampleAttach(top, 0, rep, main, fp)
		if err != nil {
			return nil, err
		}
		first = append(first, s)
	case w.routed:
		for i := 0; i < coldReps; i++ {
			s, err := h.sampleStandbySync(top, in, i, main, fp)
			if err != nil {
				return nil, err
			}
			first = append(first, s)
		}
		rep.layer["e2e.standby_sync_s"] = sample{slices.Min(first), len(first)}
	}
	main.end(fp)
	if len(first) > 0 {
		h.progress("cold path sampled %d times", len(first))
	}

	// Warm-up, untimed: connections open, caches and lazy set-up fill.
	warm := h.seconds / 5
	ws := main.begin("phase.warmup", root, 0)
	h.tr.on.Store(false)
	start := time.Now()
	runPhase(all, closedLoop(0, start, warm))
	h.tr.on.Store(h.traced)
	main.end(ws)
	for _, c := range all {
		if c.wrong > 0 {
			return nil, fmt.Errorf("warm-up: %w", c.firstErr)
		}
		c.attempted, c.failed, c.firstErr = 0, 0, nil // warm-up requests are not part of the run
	}

	var d delta
	if h.traced {
		ls := main.begin("relation.csv_load", root, 0)
		took, err := probeCSVLoad(in.csvPath)
		main.end(ls)
		if err != nil {
			return nil, err
		}
		rep.layer["relation.csv_load_ms"] = sample{1e3 * took.Seconds(), 1}
		if err := h.scrapeAll(top, "before", &d.before, rep); err != nil {
			return nil, err
		}
	}
	stopLagPoller := func() {}
	if h.traced && top.follower != nil {
		done, stopped := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(stopped)
			h.lagPoller(top.follower, done)
		}()
		stopLagPoller = func() { close(done); <-stopped }
	}
	cpu0 := cpuOf(top.procs())

	// Closed loop: throughput. A traced run spends the first half with
	// spans off, which gives trace.overhead_ratio from one boot.
	closedFor := h.seconds / 3
	var closed []obs
	var rate float64
	cs := main.begin("phase.closed", root, 0)
	if h.traced {
		h.tr.on.Store(false)
		start = time.Now()
		plain := mixOnly(runPhase(all, closedLoop(0, start, closedFor/2)))
		h.tr.on.Store(true)
		start = time.Now()
		closed = mixOnly(runPhase(all, closedLoop(cs, start, closedFor/2)))
		rate = windowRate(closed)
		rep.layer["trace.overhead_ratio"] = sample{ratio(rate, windowRate(plain)), len(closed)}
		closed = append(closed, plain...)
	} else {
		start = time.Now()
		closed = mixOnly(runPhase(all, closedLoop(cs, start, closedFor)))
		rate = windowRate(closed)
	}
	main.end(cs)
	h.progress("closed loop done: %d requests", len(closed))
	cpu1 := cpuOf(top.procs())
	rep.e2e["req_per_s"] = sample{rate, len(closed)}
	rep.layer["e2e.cpu_ms_per_req"] = sample{1e3 * ratio(cpu1-cpu0, float64(len(closed))), len(closed)}

	// Paced: latency from due time at the workload's fixed rate.
	ps := main.begin("phase.paced", root, 0)
	start = time.Now()
	paced := runPhase(all, func(c *conn) { c.paced(ps, start, h.seconds-closedFor, w.pacedRate) })
	main.end(ps)
	stopLagPoller()
	h.progress("paced phase done: %d requests", len(paced))
	if h.traced {
		// One forced roll per shard inside the scrape window, so the
		// table has the snapshot's cost although no gated phase pays it.
		for _, p := range top.shards {
			if err := postJSON(p.url()+"/v1/snapshot", struct{}{}, nil); err != nil {
				return nil, fmt.Errorf("forcing a snapshot on %s: %w", p.name, err)
			}
		}
		if err := h.scrapeAll(top, "after", &d.after, rep); err != nil {
			return nil, err
		}
	}
	h.latencies(w, rep, paced)

	for _, c := range all {
		rep.attempted += c.attempted
		rep.failed += c.failed
		rep.wrong += c.wrong
	}
	if err := firstError(all); err != nil {
		fmt.Fprintf(os.Stderr, "bench: first failed request: %v\n", err)
	}

	hwm := map[string]float64{}
	for _, p := range top.procs() {
		hwm[p.name] = p.vmHWMkB()
	}

	os1 := main.begin("phase.oracle", root, 0)
	tuples, err := h.oracle(w, top, in, conns, rep, "after traffic")
	main.end(os1)
	if err != nil {
		return nil, err
	}
	h.progress("oracle checked %d tuples", tuples)
	if h.traced {
		h.layers(w, rep, d, top, closed, paced, tuples, hwm)
	}

	if w.attach {
		as := main.begin("phase.attach", root, 0)
		for i := 1; i < attachReps; i++ {
			s, err := h.sampleAttach(top, i, rep, main, as)
			if err != nil {
				return nil, err
			}
			first = append(first, s)
		}
		main.end(as)
		h.progress("attach sampled %d times", len(first))
		rep.layer["e2e.attach_s"] = sample{slices.Min(first), len(first)}
	}
	if w.recoverSets > 0 {
		rs := main.begin("phase.recover", root, 0)
		for i := 0; i < coldReps; i++ {
			s, err := h.sampleRecover(w, top, in, conns, rep, hwm, main, rs)
			if err != nil {
				return nil, fmt.Errorf("crash and recovery %d: %w", i, err)
			}
			first = append(first, s)
		}
		main.end(rs)
		h.progress("crashed and recovered %d times", len(first))
		rep.layer["e2e.recover_s"] = sample{slices.Min(first), len(first)}
		rep.layer["incremental.recover_ms"] = sample{1e3 * slices.Min(first), len(first)}
	}
	rep.e2e["first_answer_s"] = sample{slices.Min(first), len(first)}

	var rss float64
	for _, kb := range hwm {
		rss += kb
	}
	rep.e2e["rss_mb"] = sample{rss / 1024, len(hwm)}
	rep.layer["e2e.fail_ratio"] = sample{ratio(float64(rep.failed), float64(rep.attempted)), rep.attempted}
	main.end(root)
	return rep, nil
}

// rateWindow is the width of the windows closed-loop throughput is the
// median over.
const rateWindow = 250 * time.Millisecond

// windowRate is the closed-loop rate: completions per second, as the
// median over quarter-second windows (a phase's last, partial window is
// left out). A burst of interference moves a window, not the metric.
func windowRate(all []obs) float64 {
	counts := map[int]int{}
	last := 0
	for _, o := range all {
		w := int((o.due + o.lat) / rateWindow)
		counts[w]++
		last = max(last, w)
	}
	var rates []float64
	for w := 0; w < last; w++ {
		rates = append(rates, float64(counts[w])/rateWindow.Seconds())
	}
	return median(rates)
}

// mixOnly drops the requests sent beside the mix: throughput counts the
// mix.
func mixOnly(all []obs) []obs {
	out := all[:0]
	for _, o := range all {
		if o.kind != kDiscover {
			out = append(out, o)
		}
	}
	return out
}

func firstError(conns []*conn) error {
	for _, c := range conns {
		if c.firstErr != nil {
			return c.firstErr
		}
	}
	return nil
}

func cpuOf(ps []*proc) float64 {
	var s float64
	for _, p := range ps {
		s += cpuSeconds(p.pid)
	}
	return s
}

// latencies reports the paced phase: the gated p50 of the workload's
// principal request kind, and its p95 and every kind on its own for the
// per-layer table.
func (h *harness) latencies(w workload, rep *report, paced []obs) {
	v, n := windowed(paced, 0.50, w.principal...)
	rep.e2e["p50_ms"] = sample{v, n}
	v, n = windowed(paced, 0.95, w.principal...)
	rep.layer["e2e.p95_ms"] = sample{v, n}
	for _, row := range []struct {
		name  string
		q     float64
		kinds []kind
	}{
		{"e2e.write_p50_ms", 0.50, []kind{kWrite}}, {"e2e.write_p95_ms", 0.95, []kind{kWrite}},
		{"e2e.read_p50_ms", 0.50, []kind{kPoint, kPage}}, {"e2e.read_p95_ms", 0.95, []kind{kPoint, kPage}},
		{"e2e.repairs_p50_ms", 0.50, []kind{kRepairs}}, {"e2e.discover_p50_ms", 0.50, []kind{kDiscover}},
	} {
		if v, n := windowed(paced, row.q, row.kinds...); n > 0 {
			rep.layer[row.name] = sample{v, n}
		}
	}
	var late []float64
	for _, o := range paced {
		late = append(late, float64(o.late)/1e3)
	}
	rep.layer["client.late_p99_us"] = sample{quantile(late, 0.99), len(late)}
}

// sampleAttach times the first GET /v1/repairs?trust_threshold= on a
// node whose Miner and Suggester are not attached for it: one request
// that pays the Miner's scoring pass and the Suggester's planning pass —
// the time to the first repair suggestion. cfdserve keeps one miner and
// one suggester, keyed by configuration, so between samples a
// GET /v1/discover under another configuration evicts the miner (itself
// a Miner attach, sampled as discovery.attach_ms) and the threshold
// alternates. The last sample leaves attached what the traffic uses.
func (h *harness) sampleAttach(top *topology, i int, rep *report, sb *spanBuf, parent int64) (float64, error) {
	base := top.entry.url()
	if i > 0 {
		ms := sb.begin("discovery.attach", parent, 0)
		t0 := time.Now()
		err := getJSON(base+"/v1/discover?max_lhs=1&min_support=50&min_confidence=0.95&max_patterns=20", nil)
		sb.end(ms)
		if err != nil {
			return 0, fmt.Errorf("miner attach: %w", err)
		}
		addSample(rep.layer, "discovery.attach_ms", 1e3*time.Since(t0).Seconds())
	}
	thr := []string{"0.9", "0.8"}[i%2]
	rs := sb.begin("repair.attach", parent, 0)
	t0 := time.Now()
	err := getJSON(base+"/v1/repairs?limit=100&trust_threshold="+thr, nil)
	took := time.Since(t0)
	sb.end(rs)
	if err != nil {
		return 0, fmt.Errorf("miner and suggester attach: %w", err)
	}
	addSample(rep.layer, "repair.attach_ms", 1e3*took.Seconds())
	return took.Seconds(), nil
}

// addSample folds one more observation into a running mean.
func addSample(m map[string]sample, name string, v float64) {
	s := m[name]
	s.value = (s.value*float64(s.n) + v) / float64(s.n+1)
	s.n++
	m[name] = s
}

// sampleStandbySync times a new hot standby of g0 from exec until it is
// readable at lag 0 with its primary's state: snapshot shipping plus the
// WAL tail. The standby is not registered with the router and is killed
// afterwards.
func (h *harness) sampleStandbySync(top *topology, in *inputs, i int, sb *spanBuf, parent int64) (float64, error) {
	s := sb.begin("cluster.standby_sync", parent, 0)
	defer sb.end(s)
	f, err := h.spawnFollower(fmt.Sprintf("probe-follower%d", i), top.shards[0], in,
		filepath.Join(h.state, fmt.Sprintf("probe-follower%d-wal", i)))
	if err != nil {
		return 0, err
	}
	defer f.kill()
	if err := awaitCaughtUp(f, top.shards[0], 30*time.Second); err != nil {
		return 0, err
	}
	return time.Since(f.start).Seconds(), nil
}

// keyExists asks a node whether it holds a tuple: GET /v1/violations?key=
// answers 200 for a live key and 404 for any other.
func keyExists(node *proc, key int64) (bool, error) {
	resp, err := admin.Get(node.url() + "/v1/violations?key=" + strconv.FormatInt(key, 10))
	if err != nil {
		return false, err
	}
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return true, nil
	case http.StatusNotFound:
		return false, nil
	}
	return false, fmt.Errorf("GET /v1/violations?key=%d on %s: status %d", key, node.name, resp.StatusCode)
}

// maxLostOnKill bounds how many trailing acknowledged ChangeSets a
// SIGKILL may cost before the run is incorrect. cfdserve without -fsync
// keeps appended records in a 4 KiB process-side buffer until the next
// append overflows it or a follower polls, so a kill loses up to that
// much acknowledged history — five ChangeSets have been seen, and
// docs/operations.md promises none. The benchmark reports the loss
// (incremental.acked_lost_on_kill) and requires what is left to be an
// exact prefix.
const maxLostOnKill = 16

// sampleRecover is the crash test: force a snapshot, journal exactly
// w.recoverSets more ChangeSets over one connection (so WAL order is send
// order), SIGKILL the node, restart it on the same -wal-dir and time
// exec → first 200 from /v1/stats saying recovered. The recovered state
// must be the shadow after a prefix of those ChangeSets: the shadow is
// rolled back by the ChangeSets the node no longer holds, then compared in
// full.
func (h *harness) sampleRecover(w workload, top *topology, in *inputs, conns []*conn, rep *report, hwm map[string]float64, sb *spanBuf, parent int64) (float64, error) {
	node := top.shards[0]
	if err := postJSON(node.url()+"/v1/snapshot", struct{}{}, nil); err != nil {
		return 0, fmt.Errorf("forcing a snapshot: %w", err)
	}
	c := conns[0]
	// The last maxLostOnKill ChangeSets, oldest first, and their inverses.
	var window, undo [][]genOp
	h.tr.on.Store(false)
	for i := 0; i < w.recoverSets; i++ {
		r := c.gen.requestOf(kWrite)
		inv := c.gen.sh.inverse(r.ops)
		now, wrong := time.Now(), c.wrong
		c.do(r, 0, now, now)
		if c.wrong > wrong {
			return 0, fmt.Errorf("writes before the crash: %w", c.lastErr)
		}
		window, undo = append(window, r.ops), append(undo, inv)
		if len(window) > maxLostOnKill {
			window, undo = window[1:], undo[1:]
		}
	}
	h.tr.on.Store(h.traced)
	hwm[node.name] = max(hwm[node.name], node.vmHWMkB())
	node.kill()

	s := sb.begin("incremental.recover", parent, 0)
	p, err := h.spawn(node.name, "cfdserve", serveArgs(in.csvPath, in.cfdPath, node.walDir)...)
	if err != nil {
		return 0, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	var st nodeStats
	err = getJSON(p.url()+"/v1/stats", &st)
	took := time.Since(p.start)
	sb.end(s)
	if err != nil {
		return 0, err
	}
	if !st.WAL.Recovered {
		return 0, fmt.Errorf("restart after SIGKILL: node did not recover from %s (it reloaded the CSV)", node.walDir)
	}
	p.walDir = node.walDir
	top.shards[0], top.entry = p, p
	for _, c := range conns {
		c.base = p.url()
		c.hc.CloseIdleConnections()
	}

	// Which of the keys the last ChangeSets inserted or deleted does the
	// node hold? Roll the shadow back, newest ChangeSet first, until it
	// says the same of every one of them.
	held := map[int64]bool{}
	for _, ops := range window {
		for _, o := range ops {
			if o.op == "update" {
				continue
			}
			if held[o.key], err = keyExists(p, o.key); err != nil {
				return 0, err
			}
		}
	}
	agrees := func() bool {
		for k, on := range held {
			if _, in := c.gen.sh.rows[k]; in != on {
				return false
			}
		}
		return true
	}
	lost := 0
	for !agrees() && lost < len(undo) {
		lost++
		c.gen.sh.apply(undo[len(undo)-lost])
	}
	bad, _, err := compareShadow(w, top, in, conns)
	if err != nil {
		return 0, err
	}
	for _, m := range bad {
		msg := fmt.Sprintf("oracle (after SIGKILL and restart, %d ChangeSets lost): %s", lost, m)
		fmt.Fprintln(os.Stderr, "bench: "+msg)
		rep.oracle = append(rep.oracle, msg)
	}
	addSample(rep.layer, "incremental.acked_lost_on_kill", float64(lost))
	hwm[p.name] = max(hwm[p.name], p.vmHWMkB())
	return took.Seconds(), nil
}
