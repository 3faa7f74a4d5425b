package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro"
	"repro/internal/relation"
	"repro/internal/wal"
)

// scrapeAll reads /metrics of every process under test and files the
// series under "<process>.<tag>" for the trace file.
func (h *harness) scrapeAll(top *topology, tag string, into *[]series, rep *report) error {
	*into = (*into)[:0]
	var took time.Duration
	total := 0
	for _, p := range top.procs() {
		s, n, d, err := scrape(p.url())
		if err != nil {
			return fmt.Errorf("scraping %s: %w", p.name, err)
		}
		*into = append(*into, s)
		h.scrapes[p.name+"."+tag] = s
		took += d
		total += n
	}
	rep.layer["obs.scrape_ms"] = sample{1e3 * took.Seconds(), len(top.procs())}
	rep.layer["obs.series_total"] = sample{float64(total), len(top.procs())}
	return nil
}

// sub narrows a delta (indexed like topology.procs) to some processes.
func (d delta) sub(idx ...int) delta {
	var out delta
	for _, i := range idx {
		out.before = append(out.before, d.before[i])
		out.after = append(out.after, d.after[i])
	}
	return out
}

// sumPrefix adds the change of every series whose name starts with
// prefix (all label sets of one family).
func (d delta) sumPrefix(prefix string) float64 {
	var sum float64
	for i := range d.after {
		for name, v := range d.after[i] {
			if strings.HasPrefix(name, prefix) {
				sum += v - d.before[i][name]
			}
		}
	}
	return sum
}

// layers fills the per-layer table of a serving workload from the
// daemons' own series over the timed phases [S], the client's spans [H]
// and in-process probes of public functions [C].
func (h *harness) layers(w workload, rep *report, d delta, top *topology, closed, paced []obs, tuples int, hwm map[string]float64) {
	put := func(name string, v, n float64) {
		rep.layer[name] = sample{v, int(n)}
	}
	nShards := len(top.shards)
	shardIdx := make([]int, nShards)
	for i := range shardIdx {
		shardIdx[i] = i
	}
	sh := d.sub(shardIdx...)
	ops := sh.sumPrefix("cfd_apply_ops_total{")
	batches := sh.of("cfd_apply_batches_total")

	put("incremental.apply_us", sh.meanUS("cfd_apply_seconds", ""), batches)
	put("incremental.validate_us", sh.meanUS("cfd_apply_validate_seconds", ""), batches)
	put("incremental.wal_append_us", sh.meanUS("cfd_apply_wal_append_seconds", ""), batches)
	put("incremental.shard_apply_us", sh.meanUS("cfd_apply_shard_seconds", ""), batches)
	put("incremental.gc_wait_us", sh.meanUS("cfd_group_commit_wait_seconds", ""), sh.count("cfd_group_commit_wait_seconds", ""))
	put("incremental.ops_per_batch", ratio(ops, batches), batches)
	put("incremental.rejected_total", sh.of("cfd_apply_rejected_total"), batches)
	put("incremental.violation_flips_per_op",
		ratio(sh.of("cfd_violations_added_total")+sh.of("cfd_violations_removed_total"), ops), ops)
	const violPath = `{path="/v1/violations"}`
	reads := sh.count("cfdserve_http_request_seconds", violPath)
	put("incremental.view_rebuilds_per_1k_reads", 1e3*ratio(sh.of("cfd_violations_view_rebuilds_total"), reads), reads)
	snaps := sh.of("cfd_wal_snapshots_total")
	put("incremental.snapshot_ms", sh.meanUS("cfd_wal_snapshot_seconds", "")/1e3, snaps)
	put("incremental.snapshots_total", snaps, snaps)
	var shardKB float64
	for _, p := range top.shards {
		shardKB += hwm[p.name]
	}
	put("incremental.bytes_per_tuple", ratio(shardKB*1024, float64(tuples)), float64(tuples))

	put("wal.append_us", sh.meanUS("cfd_wal_append_seconds", ""), sh.of("cfd_wal_records_total"))
	put("wal.bytes_per_op", ratio(sh.of("cfd_wal_append_bytes_total"), ops), ops)
	put("wal.records_total", sh.of("cfd_wal_records_total"), 1)
	put("wal.segment_roll_ms", sh.meanUS("cfd_wal_segment_roll_seconds", "")/1e3, sh.count("cfd_wal_segment_roll_seconds", ""))

	const (
		hist       = "cfdserve_http_request_seconds"
		applyPath  = `{path="/v1/apply"}`
		repairPath = `{path="/v1/repairs"}`
	)
	put("cfdserve.http_apply_us", sh.meanUS(hist, applyPath), sh.count(hist, applyPath))
	put("cfdserve.http_read_us", sh.meanUS(hist, violPath), reads)
	put("cfdserve.http_repairs_us", sh.meanUS(hist, repairPath), sh.count(hist, repairPath))
	if n := sh.count(hist, applyPath); n > 0 {
		// What the handler spends outside Monitor.Apply: decode + encode.
		put("cfdserve.http_overhead_us", sh.meanUS(hist, applyPath)-sh.meanUS("cfd_apply_seconds", ""), n)
	}
	put("cfdserve.errors_total", sh.sumPrefix(`cfdserve_http_errors_total{path="/v1/`), 1)

	refreshes := sh.count("cfd_miner_refresh_seconds", "")
	put("discovery.refresh_ms", sh.meanUS("cfd_miner_refresh_seconds", "")/1e3, refreshes)
	put("discovery.groups_rescored_per_refresh", ratio(sh.of("cfd_miner_groups_rescored_total"), refreshes), refreshes)
	replans := sh.count("cfd_suggester_refresh_seconds", "")
	put("repair.refresh_ms", sh.meanUS("cfd_suggester_refresh_seconds", "")/1e3, replans)
	put("repair.replanned_per_refresh", ratio(sh.of("cfd_suggester_replanned_total"), replans), replans)

	// What the entry process (the cfdserve, or the router) spent in its
	// handlers, over all request kinds.
	entry := sh
	entryHist := hist
	if w.routed {
		fo, ro := d.sub(nShards), d.sub(nShards+1)
		entry, entryHist = ro, "cfdrouter_http_request_seconds"
		routed := ro.count(entryHist, applyPath)
		put("cfdrouter.http_apply_us", ro.meanUS(entryHist, applyPath), routed)
		put("cfdrouter.http_read_us", ro.meanUS(entryHist, violPath), ro.count(entryHist, violPath))
		var slowest, busiest float64
		for i := range top.shards {
			one := d.sub(i)
			slowest = max(slowest, one.meanUS(hist, applyPath))
			busiest = max(busiest, one.sumPrefix("cfd_apply_ops_total{"))
		}
		put("cluster.route_us", ro.meanUS(entryHist, applyPath)-slowest, routed)
		put("cluster.shard_skew", ratio(busiest, ops/float64(nShards)), ops)
		put("cluster.groups_per_batch", ratio(batches, routed), routed)
		put("cluster.shard_failures_total", ro.of("cfdrouter_shard_failures_total"), 1)
		const violEP = `{endpoint="/violations"}`
		put("cluster.read_us", ro.meanUS("cfdrouter_read_seconds", violEP), ro.count("cfdrouter_read_seconds", violEP))
		put("cluster.replica_apply_us", fo.meanUS("cfd_replica_apply_seconds", ""), fo.count("cfd_replica_apply_seconds", ""))
		put("cluster.replica_lag_bytes_max", float64(h.maxLag.Load()), float64(h.lagPolls.Load()))
		put("cluster.ring_owner_ns", probeRingOwner(), ringProbeCalls)
	}

	// The client side, over both timed phases.
	all := append(append([]obs(nil), closed...), paced...)
	var enc, dec, service []float64
	for _, o := range all {
		if o.kind == failedKind {
			continue
		}
		enc = append(enc, float64(o.enc)/1e3)
		dec = append(dec, float64(o.dec)/1e3)
		service = append(service, float64(o.enc+o.rtt+o.dec)/1e3)
	}
	handler := 1e6 * ratio(entry.sumPrefix(entryHist+"_sum{"), entry.sumPrefix(entryHist+"_count{"))
	put("client.encode_us", mean(enc), float64(len(enc)))
	put("client.overhead_us", mean(service)-handler, float64(len(service)))
	// Σ layer means ÷ client-observed mean. Reported, not failed: the
	// missing share is kernel, net/http outside the handler and the
	// client transport, none of which carries a span yet.
	put("trace.explained_ratio", ratio(handler+mean(enc)+mean(dec), mean(service)), float64(len(service)))

	if v, n, err := probeFsync(filepath.Join(h.state, "fsync-probe.wal")); err == nil {
		put("wal.fsync_us", v, float64(n))
	} else {
		fmt.Fprintf(os.Stderr, "bench: wal.fsync_us probe failed: %v\n", err)
	}
}

// lagPoller samples the follower's lag while the timed phases run
// (traced runs only); stop it by closing done.
func (h *harness) lagPoller(follower *proc, done <-chan struct{}) {
	for {
		select {
		case <-done:
			return
		case <-time.After(100 * time.Millisecond):
		}
		var st nodeStats
		if err := getJSON(follower.url()+"/v1/stats", &st); err != nil || st.Replica == nil {
			continue
		}
		h.lagPolls.Add(1)
		for {
			cur := h.maxLag.Load()
			if st.Replica.LagBytes <= cur || h.maxLag.CompareAndSwap(cur, st.Replica.LagBytes) {
				break
			}
		}
	}
}

const ringProbeCalls = 1 << 20

// probeRingOwner times Ring.Owner in-process [C]: ns per lookup on the
// two-group ring the router builds.
func probeRingOwner() float64 {
	ring, err := repro.NewClusterRing(0, "g0", "g1")
	if err != nil {
		return 0
	}
	t0 := time.Now()
	n := 0
	for k := int64(0); k < ringProbeCalls; k++ {
		if ring.Owner(k) == "g0" {
			n++
		}
	}
	took := time.Since(t0)
	if n == 0 { // keeps the loop observable
		return 0
	}
	return float64(took.Nanoseconds()) / ringProbeCalls
}

// probeFsync times 200 Append+Sync of a ChangeSet-sized record on a
// scratch log opened with fsync on [C]. No gated workload fsyncs; the
// number is there so a later fsync-mode workload can be sized.
func probeFsync(path string) (float64, int, error) {
	log, err := wal.Create(path, true)
	if err != nil {
		return 0, 0, err
	}
	defer os.Remove(path)
	payload := bytes.Repeat([]byte{0x5a}, 3000) // what a 32-op record weighs
	const n = 200
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := log.Append(payload); err != nil {
			log.Close()
			return 0, 0, err
		}
	}
	took := time.Since(t0)
	if err := log.Close(); err != nil {
		return 0, 0, err
	}
	return float64(took.Microseconds()) / n, n, nil
}

// probeCSVLoad times ReadCSVInterned on the generated CSV [C] — the call
// cfdserve's seed load makes.
func probeCSVLoad(path string) (time.Duration, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	t0 := time.Now()
	if _, err := relation.ReadCSVInterned(f, "R", relation.NewInterner()); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}
