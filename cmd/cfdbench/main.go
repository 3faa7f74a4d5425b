// Command cfdbench reruns the paper's evaluation (Section 5, Figures
// 9(a)–(f) plus the "Merging CFDs" comparison) and prints each series as a
// table — the data behind EXPERIMENTS.md.
//
// Usage:
//
//	cfdbench               # full paper-scale parameters
//	cfdbench -quick        # reduced sizes for a fast smoke run
//	cfdbench -only 9a,9f   # a subset of experiments
//	cfdbench -json         # machine-readable results (name, ns/op, allocs)
//	cfdbench -repeat 3     # best-of-3 timing per series (CI stability)
//
// Experiment ids: 9a–9f and merge re-run the paper's evaluation; e9
// measures the durable serving path (WAL append latency, snapshot cost,
// cold-start recovery vs the full CSV load); e10 measures batched ingest
// (ChangeSet delta throughput vs batch size under 1/4/16 concurrent
// writers, and the one-fsync-per-batch payoff against single fsynced
// ops); e11 measures streaming discovery (incremental re-score of the
// mined CFD set after a 1K-op ChangeSet vs a full re-mine of the
// instance; acceptance is a ≥20× speedup at MaxLHS = 1); e12 measures
// WAL segment shipping (a restarted follower's catch-up — local
// snapshot + log tail recovery plus shipping the records it missed — vs
// the cold CSV re-seed a standby-less shard pays; acceptance is a ≥5×
// speedup at 100K tuples); e13 measures write-path raw speed (the commit
// window: fsynced single-op throughput at 1/4/16 concurrent writers vs
// hand-batched ChangeSets — acceptance is ≥4 coalesced writers within
// ~2× of the batched per-op rate — plus the tuple-store memory series: bytes/tuple of the dense
// value-ID columns vs the interned-string layout at 1M tuples;
// acceptance is a ≥2× reduction); e14 measures cluster write scaling (a
// consistent-hash router fanning keyed single-op updates across 1/2/4
// independent fsynced shard groups under 16 closed-loop writers;
// acceptance is ≥3× the single-shard op rate at 4 groups); e15
// measures read-path scaling (violation reads against the incremental
// view vs a per-request rescan, snapshot-isolated pagination, and
// standby fan-out); e16 measures live repair (re-planning the
// cost-ranked suggestion set after a 1K-op ChangeSet vs one full batch
// repair of the instance; acceptance is a ≥10× speedup at 100K
// tuples).
//
// Load against live daemons over real sockets is bench/'s job
// (bash bench/run.sh), not this command's.
//
// With -json the tables are suppressed and a single JSON array of
// measurements is written to stdout, so a per-PR perf trajectory
// (BENCH_baseline.json, compared by cmd/cfdbenchdiff in CI) can be
// captured.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/discovery"
	"repro/internal/gen"
	"repro/internal/incremental"
	"repro/internal/relation"
	"repro/internal/sqlgen"
	"repro/internal/sqlmini"
)

func main() {
	var (
		quick   = flag.Bool("quick", false, "reduced sizes for a fast run")
		only    = flag.String("only", "", "comma-separated experiment ids (9a,9b,9c,9d,9e,9f,merge,e9,e10,e11,e12,e13,e14,e15,e16)")
		jsonOut = flag.Bool("json", false, "emit results as a JSON array instead of tables")
		repeat  = flag.Int("repeat", 1, "measure each series this many times and keep the fastest")
	)
	flag.Parse()
	sel := map[string]bool{}
	for _, s := range strings.Split(*only, ",") {
		if s = strings.TrimSpace(s); s != "" {
			sel[s] = true
		}
	}
	want := func(id string) bool { return len(sel) == 0 || sel[id] }

	b := &bench{quick: *quick, jsonOut: *jsonOut, repeat: *repeat}
	if want("9a") {
		b.fig9ab("9a", 1.0)
	}
	if want("9b") {
		b.fig9ab("9b", 0.5)
	}
	if want("9c") {
		b.fig9c()
	}
	if want("9d") {
		b.fig9d()
	}
	if want("9e") {
		b.fig9e()
	}
	if want("9f") {
		b.fig9f()
	}
	if want("merge") {
		b.merge()
	}
	if want("e9") {
		b.e9()
	}
	if want("e10") {
		b.e10()
	}
	if want("e11") {
		b.e11()
	}
	if want("e12") {
		b.e12()
	}
	if want("e13") {
		b.e13()
	}
	if want("e14") {
		b.e14()
	}
	if want("e15") {
		b.e15()
	}
	if want("e16") {
		b.e16()
	}
	if b.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(b.results); err != nil {
			b.fatal(err)
		}
	}
	if b.failed {
		os.Exit(1)
	}
}

// result is one machine-readable measurement for the -json surface.
type result struct {
	Name   string `json:"name"`
	NsOp   int64  `json:"ns_per_op"`
	Allocs uint64 `json:"allocs"`
}

type bench struct {
	quick   bool
	jsonOut bool
	repeat  int
	failed  bool
	results []result
}

func (b *bench) fatal(err error) {
	fmt.Fprintln(os.Stderr, "cfdbench:", err)
	b.failed = true
	os.Exit(1)
}

// measurement is a timed run with its allocation count.
type measurement struct {
	d      time.Duration
	allocs uint64
}

func (m measurement) add(o measurement) measurement {
	return measurement{d: m.d + o.d, allocs: m.allocs + o.allocs}
}

// record captures a measurement under a stable series name (JSON mode).
func (b *bench) record(name string, m measurement) {
	if b.jsonOut {
		b.results = append(b.results, result{Name: name, NsOp: m.d.Nanoseconds(), Allocs: m.allocs})
	}
}

// sizes returns the SZ axis of Figures 9(a)–(c).
func (b *bench) sizes() []int {
	if b.quick {
		return []int{10000, 20000, 30000}
	}
	out := make([]int, 0, 10)
	for sz := 10000; sz <= 100000; sz += 10000 {
		out = append(out, sz)
	}
	return out
}

func (b *bench) data(sz int, noise float64) *gen.TaxData {
	return gen.GenerateTax(gen.TaxConfig{Size: sz, Noise: noise, Seed: 1})
}

func (b *bench) cfd(clean *relation.Relation, numAttrs, tabsz int, constPct float64) *core.CFD {
	tpl, err := gen.TemplateByAttrs(numAttrs)
	if err != nil {
		b.fatal(err)
	}
	cfd, err := gen.GenerateWorkloadCFD(clean, gen.CFDConfig{Template: tpl, TabSize: tabsz, ConstPct: constPct, Seed: 2})
	if err != nil {
		b.fatal(err)
	}
	return cfd
}

type pair struct{ qc, qv string }

func (b *bench) setup(rel *relation.Relation, cfd *core.CFD, form sqlgen.Form) (*sqlmini.DB, pair) {
	opts := sqlgen.Default(form)
	tab, err := sqlgen.TableauRelation(cfd, "T1", opts)
	if err != nil {
		b.fatal(err)
	}
	db := sqlmini.NewDB()
	db.RegisterRelation("R", rel)
	db.RegisterRelation("T1", tab)
	qc, err := sqlgen.QC(cfd, "R", "T1", opts)
	if err != nil {
		b.fatal(err)
	}
	qv, err := sqlgen.QV(cfd, "R", "T1", opts)
	if err != nil {
		b.fatal(err)
	}
	return db, pair{qc, qv}
}

// time measures one run of f (duration + allocations).
func (b *bench) time(f func()) measurement {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	f()
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	return measurement{d: d, allocs: after.Mallocs - before.Mallocs}
}

// best measures f -repeat times and keeps the fastest run — single-shot
// wall-clock timings on shared CI runners are noisy, and the minimum is
// the closest observable to the true cost.
func (b *bench) best(f func()) measurement {
	m := b.time(f)
	for i := 1; i < b.repeat; i++ {
		if n := b.time(f); n.d < m.d {
			m = n
		}
	}
	return m
}

// bestCold is best with a garbage collection before every attempt: each
// run starts from the same settled heap, so a cold-start measurement is
// the operation's own cost, not a predecessor's deferred GC debt.
func (b *bench) bestCold(f func()) measurement {
	m := measurement{d: time.Duration(1<<63 - 1)}
	for r := 0; r < b.repeat || r == 0; r++ {
		runtime.GC()
		if n := b.time(f); n.d < m.d {
			m = n
		}
	}
	return m
}

func (b *bench) timeQuery(db *sqlmini.DB, sql string) measurement {
	return b.best(func() {
		if _, err := db.Query(sql); err != nil {
			b.fatal(err)
		}
	})
}

func (b *bench) timePair(db *sqlmini.DB, p pair) measurement {
	return b.timeQuery(db, p.qc).add(b.timeQuery(db, p.qv))
}

func (b *bench) header(title string, cols ...string) {
	if b.jsonOut {
		return
	}
	fmt.Printf("\n## %s\n\n| %s |\n|%s\n", title, strings.Join(cols, " | "),
		strings.Repeat("---|", len(cols)))
}

func (b *bench) row(cells ...string) {
	if b.jsonOut {
		return
	}
	fmt.Printf("| %s |\n", strings.Join(cells, " | "))
}

func ms(m measurement) string {
	return fmt.Sprintf("%.0f", float64(m.d.Microseconds())/1000)
}

// fig9ab: Figures 9(a)/(b) — CNF vs DNF over SZ, NUMATTRs 3, TABSZ 1K.
func (b *bench) fig9ab(id string, constPct float64) {
	b.header(fmt.Sprintf("Figure %s: CNF vs DNF (NUMCONSTs = %.0f%%)", id, constPct*100),
		"SZ", "CNF ms", "DNF ms", "speedup")
	for _, sz := range b.sizes() {
		data := b.data(sz, 0.05)
		cfd := b.cfd(data.Clean, 3, 1000, constPct)
		dbC, pC := b.setup(data.Dirty, cfd, sqlgen.CNF)
		cnf := b.timePair(dbC, pC)
		b.record(fmt.Sprintf("%s/SZ=%d/cnf", id, sz), cnf)
		dbD, pD := b.setup(data.Dirty, cfd, sqlgen.DNF)
		dnf := b.timePair(dbD, pD)
		b.record(fmt.Sprintf("%s/SZ=%d/dnf", id, sz), dnf)
		b.row(fmt.Sprint(sz), ms(cnf), ms(dnf), fmt.Sprintf("%.1fx", float64(cnf.d)/float64(dnf.d)))
	}
}

// fig9c: QC vs QV split over SZ (DNF).
func (b *bench) fig9c() {
	b.header("Figure 9c: QC vs QV", "SZ", "QC ms", "QV ms")
	for _, sz := range b.sizes() {
		data := b.data(sz, 0.05)
		cfd := b.cfd(data.Clean, 3, 1000, 1.0)
		db, p := b.setup(data.Dirty, cfd, sqlgen.DNF)
		qc := b.timeQuery(db, p.qc)
		b.record(fmt.Sprintf("9c/SZ=%d/qc", sz), qc)
		qv := b.timeQuery(db, p.qv)
		b.record(fmt.Sprintf("9c/SZ=%d/qv", sz), qv)
		b.row(fmt.Sprint(sz), ms(qc), ms(qv))
	}
}

// fig9d: scalability in TABSZ at SZ 500K, NUMATTRs 3 vs 4, NUMCONSTs 50%.
func (b *bench) fig9d() {
	sz := 500000
	step, max := 1000, 10000
	if b.quick {
		sz, step, max = 50000, 2000, 6000
	}
	data := b.data(sz, 0.05)
	b.header(fmt.Sprintf("Figure 9d: scalability in TABSZ (SZ = %d)", sz),
		"TABSZ", "NUMATTRs=3 ms", "NUMATTRs=4 ms")
	for tabsz := step; tabsz <= max; tabsz += step {
		cfd3 := b.cfd(data.Clean, 3, tabsz, 0.5)
		db3, p3 := b.setup(data.Dirty, cfd3, sqlgen.DNF)
		t3 := b.timePair(db3, p3)
		b.record(fmt.Sprintf("9d/TABSZ=%d/attrs=3", tabsz), t3)
		cfd4 := b.cfd(data.Clean, 4, tabsz, 0.5)
		db4, p4 := b.setup(data.Dirty, cfd4, sqlgen.DNF)
		t4 := b.timePair(db4, p4)
		b.record(fmt.Sprintf("9d/TABSZ=%d/attrs=4", tabsz), t4)
		b.row(fmt.Sprint(tabsz), ms(t3), ms(t4))
	}
}

// fig9e: scalability in NUMCONSTs at SZ 100K, TABSZ 1K.
func (b *bench) fig9e() {
	sz := 100000
	if b.quick {
		sz = 20000
	}
	data := b.data(sz, 0.05)
	b.header(fmt.Sprintf("Figure 9e: scalability in NUMCONSTs (SZ = %d)", sz),
		"NUMCONSTs", "detect ms")
	for pct := 100; pct >= 10; pct -= 10 {
		cfd := b.cfd(data.Clean, 3, 1000, float64(pct)/100)
		db, p := b.setup(data.Dirty, cfd, sqlgen.DNF)
		t := b.timePair(db, p)
		b.record(fmt.Sprintf("9e/NUMCONSTS=%d", pct), t)
		b.row(fmt.Sprintf("%d%%", pct), ms(t))
	}
}

// fig9f: scalability in NOISE with the full 30K zip→state tableau.
func (b *bench) fig9f() {
	sz := 100000
	if b.quick {
		sz = 20000
	}
	cfd := gen.AllZipStateCFD(gen.NumZips)
	b.header(fmt.Sprintf("Figure 9f: scalability in NOISE (SZ = %d, TABSZ = %d)", sz, gen.NumZips),
		"NOISE", "detect ms")
	for noise := 0; noise <= 9; noise++ {
		data := b.data(sz, float64(noise)/100)
		db, p := b.setup(data.Dirty, cfd, sqlgen.DNF)
		t := b.timePair(db, p)
		b.record(fmt.Sprintf("9f/NOISE=%d", noise), t)
		b.row(fmt.Sprintf("%d%%", noise), ms(t))
	}
}

// merge: the Section 5 "Merging CFDs" comparison.
func (b *bench) merge() {
	sz := 20000
	if b.quick {
		sz = 5000
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
	b.header(fmt.Sprintf("Merging CFDs (SZ = %d, 3 related CFDs, TABSZ 500)", sz),
		"plan", "passes over R", "detect ms")
	run := func(id, name string, passes string, opts detect.Options) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		if _, err := detect.Detect(data.Dirty, sigma, opts); err != nil {
			b.fatal(err)
		}
		m := measurement{d: time.Since(start)}
		runtime.ReadMemStats(&after)
		m.allocs = after.Mallocs - before.Mallocs
		b.record("merge/"+id, m)
		b.row(name, passes, ms(m))
	}
	run("merged-cnf", "merged (QCΣ, QVΣ), CNF", "2", detect.Options{Strategy: detect.SQLMerged, Form: sqlgen.CNF})
	run("percfd-cnf", "per-CFD (QC, QV), CNF", "6", detect.Options{Strategy: detect.SQLPerCFD, Form: sqlgen.CNF})
	run("percfd-dnf", "per-CFD (QC, QV), DNF", "6", detect.Options{Strategy: detect.SQLPerCFD, Form: sqlgen.DNF})
	run("direct", "direct (no SQL)", "-", detect.Options{Strategy: detect.Direct})
}

// e9: the durable serving path (beyond the paper) — write-ahead append
// latency, full-state snapshot cost, and the payoff: cold-start recovery
// from snapshot + log tail vs parsing and re-indexing the CSV.
func (b *bench) e9() {
	sz := 100000
	if b.quick {
		sz = 20000
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

	dir, err := os.MkdirTemp("", "cfdbench-e9-")
	if err != nil {
		b.fatal(err)
	}
	defer os.RemoveAll(dir)

	// Baseline: the cold start every boot pays without durability — read
	// the CSV from disk and build the monitor by evaluating Σ per tuple.
	csvPath := filepath.Join(dir, "data.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		b.fatal(err)
	}
	if err := relation.WriteCSV(f, data.Dirty); err != nil {
		b.fatal(err)
	}
	if err := f.Close(); err != nil {
		b.fatal(err)
	}
	csvLoad := b.bestCold(func() {
		f, err := os.Open(csvPath)
		if err != nil {
			b.fatal(err)
		}
		// The serving path's load: CSV values deduplicated through the
		// pool the monitor then interns against.
		pool := relation.NewInterner()
		rel, err := relation.ReadCSVInterned(f, "R", pool)
		f.Close()
		if err != nil {
			b.fatal(err)
		}
		if _, err := incremental.Load(rel, sigma, incremental.Options{Intern: pool}); err != nil {
			b.fatal(err)
		}
	})
	b.record(fmt.Sprintf("e9/SZ=%d/coldstart-csv", sz), csvLoad)

	// The durable node: seeded once (writes the initial snapshot).
	walDir := filepath.Join(dir, "wal")
	m, err := incremental.Load(data.Dirty, sigma, incremental.Options{Durable: walDir})
	if err != nil {
		b.fatal(err)
	}
	// Each call is a distinct pass: the values carry the pass number so a
	// later pass over the same keys never repeats a tuple's current value
	// (a same-value Update is not journaled, which would turn the measured
	// appends and the recovery log tail into no-ops).
	pass := 0
	mutate := func(m *incremental.Monitor, n int) time.Duration {
		pass++
		vals := [2]string{fmt.Sprintf("AAA%d", pass), fmt.Sprintf("BBB%d", pass)}
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := m.Update(int64(i%sz), "CT", vals[i%2]); err != nil {
				b.fatal(err)
			}
		}
		return time.Since(start)
	}

	// Append latency, buffered: the monitor's update cost plus the framed
	// write-ahead record.
	nAppend := 2000
	appendBuf := measurement{d: mutate(m, nAppend) / time.Duration(nAppend)}
	b.record(fmt.Sprintf("e9/SZ=%d/append-buffered", sz), appendBuf)

	// Snapshot cost: serialize the full live state and roll the log.
	snap := b.best(func() {
		if err := m.ForceSnapshot(); err != nil {
			b.fatal(err)
		}
	})
	b.record(fmt.Sprintf("e9/SZ=%d/snapshot", sz), snap)

	// Leave a realistic log tail behind the latest snapshot, then crash.
	mutate(m, 1000)
	if err := m.Close(); err != nil {
		b.fatal(err)
	}

	// Recovery: latest snapshot + 1000-record tail replay. The journal
	// close between repeats is teardown, not time-to-serving, so only the
	// open is timed.
	recover := measurement{d: time.Duration(1<<63 - 1)}
	for r := 0; r < b.repeat || r == 0; r++ {
		var rec *incremental.Monitor
		runtime.GC() // same cold-heap discipline as the CSV baseline
		run := b.time(func() {
			var err error
			rec, err = incremental.New(data.Dirty.Schema, sigma, incremental.Options{Durable: walDir})
			if err != nil {
				b.fatal(err)
			}
			if !rec.Recovered() || rec.Len() != sz {
				b.fatal(fmt.Errorf("e9: recovered %d tuples (recovered=%v)", rec.Len(), rec.Recovered()))
			}
		})
		if run.d < recover.d {
			recover = run
		}
		if err := rec.Close(); err != nil {
			b.fatal(err)
		}
	}
	b.record(fmt.Sprintf("e9/SZ=%d/coldstart-recover", sz), recover)

	// Append latency with per-record fsync (the power-loss-proof mode).
	mf, err := incremental.New(data.Dirty.Schema, sigma, incremental.Options{Durable: walDir, Fsync: true})
	if err != nil {
		b.fatal(err)
	}
	nSync := 200
	appendSync := measurement{d: mutate(mf, nSync) / time.Duration(nSync)}
	b.record(fmt.Sprintf("e9/SZ=%d/append-fsync", sz), appendSync)
	if err := mf.Close(); err != nil {
		b.fatal(err)
	}

	b.header(fmt.Sprintf("E9: durability (SZ = %d, 3 CFDs)", sz), "metric", "value")
	b.row("WAL append, buffered", fmt.Sprintf("%.1f µs/op", float64(appendBuf.d.Nanoseconds())/1e3))
	b.row("WAL append, fsync", fmt.Sprintf("%.1f µs/op", float64(appendSync.d.Nanoseconds())/1e3))
	b.row("snapshot (full state)", ms(snap)+" ms")
	b.row("cold start: CSV load", ms(csvLoad)+" ms")
	b.row("cold start: snapshot+log recovery", ms(recover)+" ms")
	b.row("recovery speedup", fmt.Sprintf("%.1fx", float64(csvLoad.d)/float64(recover.d)))
}

// e10: batched ingest — delta throughput of the ChangeSet pipeline
// against batch size under concurrent writers, and the headline fsync
// comparison: a 1000-op ChangeSet is one WAL record and one fsync, so it
// must beat 1000 single fsynced ops by well over 3×.
func (b *bench) e10() {
	sz := 100000
	if b.quick {
		sz = 20000
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
	dir, err := os.MkdirTemp("", "cfdbench-e10-")
	if err != nil {
		b.fatal(err)
	}
	defer os.RemoveAll(dir)

	// mutateBatched drives n CT updates through m as ChangeSets of size
	// batch, split evenly across writers goroutines (each on its own key
	// range, so contention is the pipeline's — the writer lock, shard
	// locks — not artificial same-key serialization). The per-writer pass
	// counter keeps every revisit a real value flip, as in e9.
	pass := 0
	mutateBatched := func(m *incremental.Monitor, n, batch, writers int) time.Duration {
		pass++
		vals := [2]string{fmt.Sprintf("XAA%d", pass), fmt.Sprintf("XBB%d", pass)}
		perW := n / writers
		span := sz / writers
		var wg sync.WaitGroup
		errs := make([]error, writers)
		start := time.Now()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				base := w * span
				for done := 0; done < perW; {
					sz := batch
					if rest := perW - done; rest < sz {
						sz = rest
					}
					var cs incremental.ChangeSet
					for i := 0; i < sz; i++ {
						op := done + i
						cs.Update(int64(base+op%span), "CT", vals[(op+op/span)%2])
					}
					if _, err := m.Apply(&cs); err != nil {
						errs[w] = err
						return
					}
					done += sz
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
		return d
	}

	// The headline pair: durable + fsync, single ops vs one 1000-op
	// ChangeSet per apply. Acceptance: batch ≥ 3× faster per op.
	mf, err := incremental.Load(data.Dirty, sigma, incremental.Options{Durable: filepath.Join(dir, "fsync"), Fsync: true})
	if err != nil {
		b.fatal(err)
	}
	nSingle, nBatch := 300, 3000
	if b.quick {
		nSingle, nBatch = 200, 2000
	}
	best := func(n, batch, writers int, m *incremental.Monitor) measurement {
		out := measurement{d: time.Duration(1<<63 - 1)}
		for r := 0; r < b.repeat || r == 0; r++ {
			if d := mutateBatched(m, n, batch, writers) / time.Duration(n); d < out.d {
				out = measurement{d: d}
			}
		}
		return out
	}
	singleFsync := best(nSingle, 1, 1, mf)
	b.record(fmt.Sprintf("e10/SZ=%d/fsync/batch=1", sz), singleFsync)
	batchFsync := best(nBatch, 1000, 1, mf)
	b.record(fmt.Sprintf("e10/SZ=%d/fsync/batch=1000", sz), batchFsync)
	if err := mf.Close(); err != nil {
		b.fatal(err)
	}

	// Delta throughput vs batch size under 1/4/16 concurrent writers,
	// durable buffered — the serving configuration.
	md, err := incremental.Load(data.Dirty, sigma, incremental.Options{Durable: filepath.Join(dir, "buf")})
	if err != nil {
		b.fatal(err)
	}
	nOps := 32000
	if b.quick {
		nOps = 8000
	}
	type cell struct {
		batch, writers int
		m              measurement
	}
	var cells []cell
	for _, writers := range []int{1, 4, 16} {
		for _, batch := range []int{1, 16, 256, 1000} {
			m := best(nOps, batch, writers, md)
			b.record(fmt.Sprintf("e10/SZ=%d/writers=%d/batch=%d", sz, writers, batch), m)
			cells = append(cells, cell{batch, writers, m})
		}
	}
	if err := md.Close(); err != nil {
		b.fatal(err)
	}

	b.header(fmt.Sprintf("E10: batched ingest (SZ = %d, 3 CFDs, durable)", sz),
		"series", "batch", "writers", "µs/op", "ops/sec")
	us := func(m measurement) string { return fmt.Sprintf("%.1f", float64(m.d.Nanoseconds())/1e3) }
	rate := func(m measurement) string {
		if m.d <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.0f", 1e9/float64(m.d.Nanoseconds()))
	}
	b.row("fsync single-op", "1", "1", us(singleFsync), rate(singleFsync))
	b.row("fsync batched", "1000", "1", us(batchFsync), rate(batchFsync))
	b.row("fsync batch speedup", "-", "-", fmt.Sprintf("%.1fx", float64(singleFsync.d)/float64(batchFsync.d)), "-")
	for _, c := range cells {
		b.row("buffered", fmt.Sprint(c.batch), fmt.Sprint(c.writers), us(c.m), rate(c.m))
	}
}

// e11: streaming discovery — the cost of keeping the mined CFD set
// current. Full re-mine is the bulk path (Discover: seed a throwaway
// monitor, score every group); the streaming path applies a 1K-op
// ChangeSet to a live monitor and re-scores only the groups it touched
// (Miner.Refresh). Acceptance: re-score ≥ 20× faster than re-mining at
// 100K tuples, MaxLHS = 1.
func (b *bench) e11() {
	sz := 100000
	if b.quick {
		sz = 20000
	}
	data := b.data(sz, 0.05)
	cfg := discovery.Config{MaxLHS: 1, MinSupport: 2}

	// The full re-mine every batch of changes would otherwise pay.
	full := b.bestCold(func() {
		if _, err := discovery.Discover(data.Dirty, cfg); err != nil {
			b.fatal(err)
		}
	})
	b.record(fmt.Sprintf("e11/SZ=%d/full-mine", sz), full)

	// The streaming miner over a live monitor. Attach cost (the one full
	// scoring pass) is reported for context.
	m, err := incremental.Load(data.Dirty, nil, incremental.Options{})
	if err != nil {
		b.fatal(err)
	}
	var miner *discovery.Miner
	attach := b.time(func() {
		miner, err = discovery.NewMiner(m, cfg)
		if err != nil {
			b.fatal(err)
		}
	})
	b.record(fmt.Sprintf("e11/SZ=%d/attach", sz), attach)
	defer miner.Close()

	// Re-score after a 1K-op ChangeSet of CT updates (each touches every
	// pair whose X or A mentions CT). The batch apply itself is not
	// timed: it is the serving path's cost, already measured by E10; the
	// pass counter keeps every repeat a real value flip.
	const nOps = 1000
	pass := 0
	applyBatch := func() {
		pass++
		vals := [2]string{fmt.Sprintf("MAA%d", pass), fmt.Sprintf("MBB%d", pass)}
		var cs incremental.ChangeSet
		for i := 0; i < nOps; i++ {
			cs.Update(int64(i%sz), "CT", vals[i%2])
		}
		if _, err := m.Apply(&cs); err != nil {
			b.fatal(err)
		}
	}
	rescore := measurement{d: time.Duration(1<<63 - 1)}
	for r := 0; r < b.repeat || r == 0; r++ {
		applyBatch()
		if run := b.time(func() { miner.Refresh() }); run.d < rescore.d {
			rescore = run
		}
	}
	b.record(fmt.Sprintf("e11/SZ=%d/rescore-1k", sz), rescore)

	// Materializing the current mined set (what GET /discover serves).
	mined := b.best(func() {
		if _, err := miner.Mined(); err != nil {
			b.fatal(err)
		}
	})
	b.record(fmt.Sprintf("e11/SZ=%d/mined", sz), mined)

	b.header(fmt.Sprintf("E11: streaming discovery (SZ = %d, MaxLHS = 1)", sz), "metric", "value")
	b.row("full re-mine (Discover)", ms(full)+" ms")
	b.row("miner attach (one scoring pass)", ms(attach)+" ms")
	b.row("incremental re-score, 1K-op ChangeSet", ms(rescore)+" ms")
	b.row("materialize mined set", ms(mined)+" ms")
	b.row("re-score speedup", fmt.Sprintf("%.1fx", float64(full.d)/float64(rescore.d)))
}

// e12: WAL segment shipping — the hot standby's catch-up economics.
// Without a standby, a failed shard re-seeds from the CSV: parse, build,
// re-evaluate Σ per tuple. With one, the replacement node recovers its
// own snapshot + log tail from disk and ships only the records it
// missed while down. Acceptance: catch-up ≥ 5× faster than the CSV
// re-seed at 100K tuples (a 1K-record gap).
func (b *bench) e12() {
	sz := 100000
	if b.quick {
		sz = 20000
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
	dir, err := os.MkdirTemp("", "cfdbench-e12-")
	if err != nil {
		b.fatal(err)
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()

	// Baseline: the standby-less failover path — re-seed from the CSV.
	csvPath := filepath.Join(dir, "data.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		b.fatal(err)
	}
	if err := relation.WriteCSV(f, data.Dirty); err != nil {
		b.fatal(err)
	}
	if err := f.Close(); err != nil {
		b.fatal(err)
	}
	csvLoad := b.bestCold(func() {
		f, err := os.Open(csvPath)
		if err != nil {
			b.fatal(err)
		}
		pool := relation.NewInterner()
		rel, err := relation.ReadCSVInterned(f, "R", pool)
		f.Close()
		if err != nil {
			b.fatal(err)
		}
		if _, err := incremental.Load(rel, sigma, incremental.Options{Intern: pool}); err != nil {
			b.fatal(err)
		}
	})
	b.record(fmt.Sprintf("e12/SZ=%d/coldstart-csv", sz), csvLoad)

	// The primary, retaining closed segments for its follower.
	p, err := incremental.Load(data.Dirty, sigma, incremental.Options{
		Durable: filepath.Join(dir, "primary"), RetainSegments: 4,
	})
	if err != nil {
		b.fatal(err)
	}
	src := incremental.NewMonitorSource(p)
	fdir := filepath.Join(dir, "follower")

	// Initial sync: ship the full snapshot and replay it locally — what
	// a brand-new standby pays once, reported for context.
	var fol *incremental.Follower
	initial := b.time(func() {
		var err error
		fol, err = incremental.NewFollower(ctx, sigma, incremental.Options{Durable: fdir},
			incremental.FollowOptions{Source: src})
		if err != nil {
			b.fatal(err)
		}
		if _, err := fol.Sync(ctx); err != nil {
			b.fatal(err)
		}
		if fol.Monitor().Len() != sz {
			b.fatal(fmt.Errorf("e12: initial sync got %d tuples, want %d", fol.Monitor().Len(), sz))
		}
	})
	b.record(fmt.Sprintf("e12/SZ=%d/follower-initial-sync", sz), initial)

	// Catch-up: the standby restarts after missing tailN records. Each
	// repeat kills the follower, advances the primary, and times local
	// recovery + shipping the gap. Same cold-heap discipline as the CSV
	// baseline.
	const tailN = 1000
	pass := 0
	advance := func(n int) {
		pass++
		vals := [2]string{fmt.Sprintf("SAA%d", pass), fmt.Sprintf("SBB%d", pass)}
		for i := 0; i < n; i++ {
			if _, err := p.Update(int64(i%sz), "CT", vals[i%2]); err != nil {
				b.fatal(err)
			}
		}
	}
	catchup := measurement{d: time.Duration(1<<63 - 1)}
	for r := 0; r < b.repeat || r == 0; r++ {
		if err := fol.Close(); err != nil {
			b.fatal(err)
		}
		advance(tailN)
		runtime.GC()
		run := b.time(func() {
			var err error
			fol, err = incremental.NewFollower(ctx, sigma, incremental.Options{Durable: fdir},
				incremental.FollowOptions{Source: src})
			if err != nil {
				b.fatal(err)
			}
			applied, err := fol.Sync(ctx)
			if err != nil {
				b.fatal(err)
			}
			if applied != tailN || fol.Monitor().Len() != sz {
				b.fatal(fmt.Errorf("e12: catch-up applied %d records (len %d), want %d", applied, fol.Monitor().Len(), tailN))
			}
		})
		if run.d < catchup.d {
			catchup = run
		}
	}
	b.record(fmt.Sprintf("e12/SZ=%d/follower-catchup", sz), catchup)

	// Promotion: the failover flip itself.
	promote := b.time(func() {
		if err := fol.Promote(); err != nil {
			b.fatal(err)
		}
	})
	b.record(fmt.Sprintf("e12/SZ=%d/promote", sz), promote)
	if err := fol.Monitor().Close(); err != nil {
		b.fatal(err)
	}
	fol.Close()
	if err := p.Close(); err != nil {
		b.fatal(err)
	}

	b.header(fmt.Sprintf("E12: WAL shipping failover (SZ = %d, 3 CFDs, %d-record gap)", sz, tailN), "metric", "value")
	b.row("cold start: CSV re-seed", ms(csvLoad)+" ms")
	b.row("follower initial sync (snapshot ship)", ms(initial)+" ms")
	b.row("follower catch-up (local recovery + tail ship)", ms(catchup)+" ms")
	b.row("promotion flip", fmt.Sprintf("%.1f µs", float64(promote.d.Nanoseconds())/1e3))
	b.row("catch-up vs re-seed", fmt.Sprintf("%.1fx", float64(csvLoad.d)/float64(catchup.d)))
}

// e13: write-path raw speed. Part one is the commit window — concurrent
// writers issuing single fsynced ops coalesce into one combined WAL
// record and one fsync per window, so per-op cost should fall toward the
// hand-batched rate as writers grow. Acceptance: at ≥ 4 writers the
// coalesced single-op rate is within ~2× of the batched reference. Part two is the dense value-ID tuple store —
// bytes/tuple of the monitor's packed uint32 columns vs the
// interned-string tuple layout it replaced, at 1M tuples (200K under
// -quick). Acceptance: ≥ 2× reduction.
func (b *bench) e13() {
	sz := 100000
	if b.quick {
		sz = 20000
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
	dir, err := os.MkdirTemp("", "cfdbench-e13-")
	if err != nil {
		b.fatal(err)
	}
	defer os.RemoveAll(dir)

	// Same driver as e10: n CT updates as ChangeSets of size batch split
	// across writers on disjoint key ranges, pass counter keeping every
	// revisit a real flip.
	pass := 0
	mutateBatched := func(m *incremental.Monitor, n, batch, writers int) time.Duration {
		pass++
		vals := [2]string{fmt.Sprintf("GAA%d", pass), fmt.Sprintf("GBB%d", pass)}
		perW := n / writers
		span := sz / writers
		var wg sync.WaitGroup
		errs := make([]error, writers)
		start := time.Now()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				base := w * span
				for done := 0; done < perW; {
					sz := batch
					if rest := perW - done; rest < sz {
						sz = rest
					}
					var cs incremental.ChangeSet
					for i := 0; i < sz; i++ {
						op := done + i
						cs.Update(int64(base+op%span), "CT", vals[(op+op/span)%2])
					}
					if _, err := m.Apply(&cs); err != nil {
						errs[w] = err
						return
					}
					done += sz
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
		return d
	}
	best := func(n, batch, writers int, m *incremental.Monitor) measurement {
		out := measurement{d: time.Duration(1<<63 - 1)}
		for r := 0; r < b.repeat || r == 0; r++ {
			if d := mutateBatched(m, n, batch, writers) / time.Duration(n); d < out.d {
				out = measurement{d: d}
			}
		}
		return out
	}

	nSingle, nBatch := 320, 3200
	if b.quick {
		nSingle, nBatch = 160, 1600
	}

	// Every monitor coalesces: the window is whoever queued up behind the
	// in-flight fsync, so one writer gets no company and 16 get plenty.
	mon, err := incremental.Load(data.Dirty, sigma, incremental.Options{
		Durable: filepath.Join(dir, "on"), Fsync: true,
	})
	if err != nil {
		b.fatal(err)
	}
	batched := best(nBatch, 16, 4, mon)
	b.record(fmt.Sprintf("e13/SZ=%d/fsync/batch=16/writers=4", sz), batched)
	onByWriters := map[int]measurement{}
	for _, writers := range []int{1, 4, 16} {
		m := best(nSingle, 1, writers, mon)
		onByWriters[writers] = m
		b.record(fmt.Sprintf("e13/SZ=%d/fsync/gc=on/writers=%d", sz, writers), m)
	}
	if err := mon.Close(); err != nil {
		b.fatal(err)
	}

	// Part two: tuple-store memory. Build the two layouts side by side
	// from the same rows and compare live heap deltas. Byte counts (not
	// durations) are recorded, so the series are deterministic.
	nMem := 1000000
	if b.quick {
		nMem = 200000
	}
	heapBytes := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	src := data.Dirty.Tuples
	width := len(src[0])

	before := heapBytes()
	idIn := relation.NewInterner()
	idStore := make(map[int64][]uint32, nMem)
	for i := 0; i < nMem; i++ {
		idStore[int64(i)] = idIn.AppendIDs(make([]uint32, 0, width), src[i%len(src)])
	}
	idTotal := heapBytes() - before

	before = heapBytes()
	strIn := relation.NewInterner()
	strStore := make(map[int64]relation.Tuple, nMem)
	for i := 0; i < nMem; i++ {
		// The replaced layout: one []Value per tuple, each element an
		// interned string header. (InternTuple would hand back the shared
		// source slice once its values are canonical, hiding the cost.)
		tp := make(relation.Tuple, width)
		for j, v := range src[i%len(src)] {
			tp[j] = strIn.Intern(v)
		}
		strStore[int64(i)] = tp
	}
	strTotal := heapBytes() - before
	runtime.KeepAlive(idStore)
	runtime.KeepAlive(strStore)

	idPer := idTotal / uint64(nMem)
	strPer := strTotal / uint64(nMem)
	// Total bytes ride in the duration slot (1 byte = 1ns) so the CI
	// gate tracks memory regressions with the same ±tolerance as time.
	b.record(fmt.Sprintf("e13/N=%d/mem/idcols", nMem), measurement{d: time.Duration(idTotal), allocs: idPer})
	b.record(fmt.Sprintf("e13/N=%d/mem/strtuples", nMem), measurement{d: time.Duration(strTotal), allocs: strPer})

	b.header(fmt.Sprintf("E13: commit window + ID columns (SZ = %d, 3 CFDs, durable+fsync)", sz),
		"series", "writers", "µs/op", "ops/sec")
	us := func(m measurement) string { return fmt.Sprintf("%.1f", float64(m.d.Nanoseconds())/1e3) }
	rate := func(m measurement) string {
		if m.d <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.0f", 1e9/float64(m.d.Nanoseconds()))
	}
	for _, writers := range []int{1, 4, 16} {
		m := onByWriters[writers]
		b.row("single-op", fmt.Sprint(writers), us(m), rate(m))
	}
	b.row("batched (batch=16)", "4", us(batched), rate(batched))
	b.row("16 writers vs 1", "-",
		fmt.Sprintf("%.1fx", float64(onByWriters[1].d)/float64(onByWriters[16].d)), "-")
	b.row("16 writers vs batched", "-",
		fmt.Sprintf("%.1fx (want ≤ ~2x on sync-bound devices)", float64(onByWriters[16].d)/float64(batched.d)), "-")

	b.header(fmt.Sprintf("E13: tuple-store memory (N = %d, %d attrs)", nMem, width),
		"layout", "bytes/tuple", "total MB")
	mb := func(n uint64) string { return fmt.Sprintf("%.1f", float64(n)/1e6) }
	b.row("value-ID columns", fmt.Sprint(idPer), mb(idTotal))
	b.row("interned-string tuples", fmt.Sprint(strPer), mb(strTotal))
	if idPer > 0 {
		b.row("reduction", fmt.Sprintf("%.1fx (want ≥ 2x)", float64(strPer)/float64(idPer)), "-")
	}
}
