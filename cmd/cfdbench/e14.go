package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/incremental"
)

// sortDurations and pctl are the latency-quantile helpers shared by
// e14's routed-write distribution and e15's point reads.
func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}

// pctl reads quantile q from an already-sorted latency slice.
func pctl(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// e14: cluster write scaling. A consistent-hash router splits keyed
// single-op updates across independent shard groups, each a durable
// fsynced monitor with its own WAL — so the fsync serialization that
// caps a single node's write rate parallelizes with the group count.
// 16 closed-loop partition-affine writers issue n single-op
// ChangeSets through the router at 1, 2 and 4 shard groups. Every
// group coalesces its writers into commit windows, so a fixed writer
// count partly hides the scaling — 16 writers sharing 1 window ≈ 4
// writers × 4 windows — and the ratio understates what sharding buys
// an fsync-bound node. Acceptance: ≥ 3× the single-shard op rate at 4 groups on
// hardware that exposes the parallelism — cores ≥ groups and a flush
// path whose concurrent-stream throughput keeps climbing at 4 streams.
//
// The "env ×" column keeps the headline honest on hardware that does
// not: it is the host's own flush-concurrency envelope, measured with
// the identical writer pattern against bare files, so the table always
// shows how much of the machine's available flush parallelism the
// cluster converts into op throughput. On a single-core VM with one
// virtio disk the envelope itself tops out near 2× at 4 streams — the
// cluster cannot scale past the denominator, and the gap between the
// two columns (not the absolute ratio) is the router's overhead.
func (b *bench) e14() {
	sz, n := 40000, 3200
	if b.quick {
		sz, n = 8000, 640
	}
	data := b.data(sz, 0.05)
	var sigma []*core.CFD
	for i, tpl := range []gen.Template{gen.ZipToState, gen.ZipCityToState, gen.AreaCodeToState} {
		cfd, err := gen.GenerateWorkloadCFD(data.Clean, gen.CFDConfig{
			Template: tpl, TabSize: 500, ConstPct: 1.0, Seed: int64(3 + i),
		})
		if err != nil {
			b.fatal(err)
		}
		sigma = append(sigma, cfd)
	}
	dir, err := os.MkdirTemp("", "cfdbench-e14-")
	if err != nil {
		b.fatal(err)
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()

	const writers = 16
	pass := 0
	// mutate: n CT flips as single-op ChangeSets through the router from
	// closed-loop writers (same driver shape as e13, with the router in
	// the path). Writers are partition-affine: each drives keys its own
	// shard group owns, the standard capacity-driver shape — a writer
	// whose keys scatter across groups convoys over every group's commit
	// mutex in turn and measures scheduler handoff, not capacity.
	// Writers sharing a group walk disjoint stride classes of its key
	// pool. Per-op latencies come back for the quantile columns.
	mutate := func(rt *cluster.Router, pools [][]int64) (time.Duration, []time.Duration) {
		pass++
		vals := [2]string{fmt.Sprintf("GAA%d", pass), fmt.Sprintf("GBB%d", pass)}
		perW := n / writers
		shards := len(pools)
		lats := make([]time.Duration, writers*perW)
		errs := make([]error, writers)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				pool := pools[w%shards]
				stride := writers / shards
				for i := 0; i < perW; i++ {
					key := pool[(w/shards+i*stride)%len(pool)]
					var cs incremental.ChangeSet
					cs.Update(key, "CT", vals[i%2])
					t0 := time.Now()
					if _, err := rt.Apply(ctx, &cs); err != nil {
						errs[w] = err
						return
					}
					lats[w*perW+i] = time.Since(t0)
				}
			}(w)
		}
		wg.Wait()
		d := time.Since(start)
		for _, err := range errs {
			if err != nil {
				b.fatal(err)
			}
		}
		return d, lats
	}

	run := func(shards, rep int) (measurement, []time.Duration) {
		cfgs := make([]cluster.GroupConfig, 0, shards)
		mons := make([]*incremental.Monitor, 0, shards)
		for g := 0; g < shards; g++ {
			m, err := incremental.New(data.Clean.Schema, sigma, incremental.Options{
				Durable: filepath.Join(dir, fmt.Sprintf("s%d-r%d-g%d", shards, rep, g)), Fsync: true,
			})
			if err != nil {
				b.fatal(err)
			}
			mons = append(mons, m)
			cfgs = append(cfgs, cluster.GroupConfig{Name: fmt.Sprintf("g%d", g), Primary: &cluster.LocalBackend{M: m}})
		}
		rt, err := cluster.NewRouter(ctx, cfgs, cluster.Options{})
		if err != nil {
			b.fatal(err)
		}
		// Seed through the router so ownership matches the ring; batched,
		// so the untimed preload does not pay an fsync per tuple.
		for i := 0; i < sz; i += 512 {
			var cs incremental.ChangeSet
			for j := i; j < i+512 && j < sz; j++ {
				cs.Insert(data.Dirty.Tuples[j])
			}
			if _, err := rt.Apply(ctx, &cs); err != nil {
				b.fatal(err)
			}
		}
		// Partition the key space by ring ownership for the affine writers.
		idx := make(map[string]int, shards)
		for i, name := range rt.Groups() {
			idx[name] = i
		}
		pools := make([][]int64, shards)
		for k := int64(0); k < int64(sz); k++ {
			g := idx[rt.Owner(k)]
			pools[g] = append(pools[g], k)
		}
		// The preload allocates the resident state; collect it before the
		// clock starts so single-core GC pauses don't land in the tails.
		runtime.GC()
		d, lats := mutate(rt, pools)
		for _, m := range mons {
			if err := m.Close(); err != nil {
				b.fatal(err)
			}
		}
		return measurement{d: d / time.Duration(n)}, lats
	}

	type row struct {
		shards int
		m      measurement
		lats   []time.Duration
		env    time.Duration
	}
	var rows []row
	for _, shards := range []int{1, 2, 4} {
		out := measurement{d: time.Duration(1<<63 - 1)}
		env := time.Duration(1<<63 - 1)
		var lats []time.Duration
		for r := 0; r < b.repeat || r == 0; r++ {
			m, l := run(shards, r)
			if m.d < out.d {
				out, lats = m, l
			}
			if e := b.flushEnvelope(dir, shards, writers); e < env {
				env = e
			}
		}
		b.record(fmt.Sprintf("e14/SZ=%d/fsync/shards=%d/writers=%d", sz, shards, writers), out)
		rows = append(rows, row{shards: shards, m: out, lats: lats, env: env})
	}

	b.header(fmt.Sprintf("E14: cluster write scaling (SZ = %d, 3 CFDs, durable+fsync, %d writers)", sz, writers),
		"shards", "µs/op", "ops/sec", "p50", "p95", "p99", "× vs 1", "env ×")
	base, envBase := rows[0].m.d, rows[0].env
	for _, r := range rows {
		sortDurations(r.lats)
		scale, envScale := "-", "-"
		if r.m.d > 0 {
			scale = fmt.Sprintf("%.2f", float64(base)/float64(r.m.d))
		}
		if r.env > 0 {
			envScale = fmt.Sprintf("%.2f", float64(envBase)/float64(r.env))
		}
		b.row(fmt.Sprint(r.shards),
			fmt.Sprintf("%.1f", float64(r.m.d.Nanoseconds())/1e3),
			fmt.Sprintf("%.0f", 1e9/float64(r.m.d.Nanoseconds())),
			pctl(r.lats, 0.50).String(), pctl(r.lats, 0.95).String(), pctl(r.lats, 0.99).String(),
			scale, envScale)
	}
}

// flushEnvelope measures the host's raw flush-concurrency envelope for
// e14's "env ×" column: the same 16 closed-loop writers, the same
// per-op record size, but bare files instead of monitors — k of them,
// one per would-be shard group, each serializing its writers behind a
// mutex exactly as a WAL does. The per-op time that comes back is the
// best the hardware offers k concurrent durable streams; the cluster
// column can approach it, never beat it.
func (b *bench) flushEnvelope(dir string, k, writers int) time.Duration {
	type stream struct {
		mu sync.Mutex
		f  *os.File
	}
	streams := make([]*stream, k)
	for i := range streams {
		f, err := os.CreateTemp(dir, "env-")
		if err != nil {
			b.fatal(err)
		}
		streams[i] = &stream{f: f}
	}
	defer func() {
		for _, s := range streams {
			name := s.f.Name()
			s.f.Close()
			os.Remove(name)
		}
	}()
	buf := make([]byte, 48)
	perW := 100
	if !b.quick {
		perW = 200
	}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := streams[w%k]
			for i := 0; i < perW; i++ {
				s.mu.Lock()
				_, werr := s.f.Write(buf)
				serr := s.f.Sync()
				s.mu.Unlock()
				if werr != nil {
					b.fatal(werr)
				}
				if serr != nil {
					b.fatal(serr)
				}
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start) / time.Duration(writers*perW)
}
