package repro

// The benchmark harness regenerating every figure of the paper's
// evaluation (Section 5), plus per-layer benchmarks of the serving path.
// Experiment ids E1–E7 number the paper's figures and its "Merging CFDs"
// comparison, E8 onwards the serving-path layers. The series a figure
// plots appear here as sub-benchmarks (one per x-axis point), so
//
//	go test -run '^$' -bench Fig9a -benchmem .
//
// prints the same series as Figure 9(a). The end-to-end benchmark over
// real sockets is bench/ (bash bench/run.sh); this file is its per-layer
// microscope.
//
// Setup (data generation, tableau encoding, SQL generation) happens
// outside the timer: like the paper, we measure detection-query
// evaluation, not loading.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/discovery"
	"repro/internal/gen"
	"repro/internal/incremental"
	"repro/internal/node"
	"repro/internal/relation"
	"repro/internal/repair"
	"repro/internal/sqlgen"
	"repro/internal/sqlmini"
)

// benchSetup is a prepared detection workload: data and tableau tables
// registered in an engine catalog, with the query pair already generated.
type benchSetup struct {
	db *sqlmini.DB
	qc string
	qv string
}

func newSingleCFDSetup(b *testing.B, rel *Relation, cfd *CFD, form sqlgen.Form) *benchSetup {
	b.Helper()
	opts := sqlgen.Default(form)
	tab, err := sqlgen.TableauRelation(cfd, "T1", opts)
	if err != nil {
		b.Fatal(err)
	}
	db := sqlmini.NewDB()
	db.RegisterRelation("R", rel)
	db.RegisterRelation("T1", tab)
	qc, err := sqlgen.QC(cfd, "R", "T1", opts)
	if err != nil {
		b.Fatal(err)
	}
	qv, err := sqlgen.QV(cfd, "R", "T1", opts)
	if err != nil {
		b.Fatal(err)
	}
	return &benchSetup{db: db, qc: qc, qv: qv}
}

func (s *benchSetup) runQC(b *testing.B) {
	if _, err := s.db.Query(s.qc); err != nil {
		b.Fatal(err)
	}
}

func (s *benchSetup) runQV(b *testing.B) {
	if _, err := s.db.Query(s.qv); err != nil {
		b.Fatal(err)
	}
}

func (s *benchSetup) runBoth(b *testing.B) {
	s.runQC(b)
	s.runQV(b)
}

// fig9Sizes is the x-axis of Figures 9(a)–(c): SZ from 10K to 100K.
var fig9Sizes = []int{10000, 20000, 30000, 40000, 50000, 60000, 70000, 80000, 90000, 100000}

// taxData generates the dirty instance for the given SZ/NOISE.
func taxData(sz int, noise float64) *TaxData {
	return gen.GenerateTax(gen.TaxConfig{Size: sz, Noise: noise, Seed: 1})
}

// workloadCFD builds the Section 5 CFD with the given knobs from clean data.
func workloadCFD(b *testing.B, clean *Relation, numAttrs, tabsz int, constPct float64) *CFD {
	b.Helper()
	tpl, err := gen.TemplateByAttrs(numAttrs)
	if err != nil {
		b.Fatal(err)
	}
	cfd, err := gen.GenerateWorkloadCFD(clean, gen.CFDConfig{
		Template: tpl, TabSize: tabsz, ConstPct: constPct, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	return cfd
}

// benchCNFvsDNF runs one Figure 9(a)/9(b) series: detection time (QC+QV)
// against SZ for a fixed NUMATTRs=3, TABSZ=1K CFD.
func benchCNFvsDNF(b *testing.B, constPct float64, form sqlgen.Form) {
	for _, sz := range fig9Sizes {
		b.Run(fmt.Sprintf("SZ=%d", sz), func(b *testing.B) {
			data := taxData(sz, 0.05)
			cfd := workloadCFD(b, data.Clean, 3, 1000, constPct)
			setup := newSingleCFDSetup(b, data.Dirty, cfd, form)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				setup.runBoth(b)
			}
		})
	}
}

// E1 — Figure 9(a): CNF vs DNF, NUMCONSTs = 100%.
func BenchmarkFig9aCNF(b *testing.B) { benchCNFvsDNF(b, 1.0, sqlgen.CNF) }
func BenchmarkFig9aDNF(b *testing.B) { benchCNFvsDNF(b, 1.0, sqlgen.DNF) }

// E2 — Figure 9(b): CNF vs DNF, NUMCONSTs = 50% (half the pattern tuples
// contain variables).
func BenchmarkFig9bCNF(b *testing.B) { benchCNFvsDNF(b, 0.5, sqlgen.CNF) }
func BenchmarkFig9bDNF(b *testing.B) { benchCNFvsDNF(b, 0.5, sqlgen.DNF) }

// E3 — Figure 9(c): the detection cost split between QC and QV
// (NUMATTRs 3, TABSZ 1K, NUMCONSTs 100%, DNF evaluation).
func benchQCorQV(b *testing.B, wantQC bool) {
	for _, sz := range fig9Sizes {
		b.Run(fmt.Sprintf("SZ=%d", sz), func(b *testing.B) {
			data := taxData(sz, 0.05)
			cfd := workloadCFD(b, data.Clean, 3, 1000, 1.0)
			setup := newSingleCFDSetup(b, data.Dirty, cfd, sqlgen.DNF)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if wantQC {
					setup.runQC(b)
				} else {
					setup.runQV(b)
				}
			}
		})
	}
}

func BenchmarkFig9cQC(b *testing.B) { benchQCorQV(b, true) }
func BenchmarkFig9cQV(b *testing.B) { benchQCorQV(b, false) }

// E4 — Figure 9(d): scalability in TABSZ at SZ = 500K, NUMCONSTs 50%,
// NUMATTRs 3 vs 4. The 500K instance is generated once and shared.
var (
	big500Once sync.Once
	big500     *TaxData
)

func bigTaxData(b *testing.B) *TaxData {
	b.Helper()
	big500Once.Do(func() {
		big500 = gen.GenerateTax(gen.TaxConfig{Size: 500000, Noise: 0.05, Seed: 1})
	})
	return big500
}

func benchTabSize(b *testing.B, numAttrs int) {
	data := bigTaxData(b)
	for tabsz := 1000; tabsz <= 10000; tabsz += 1000 {
		b.Run(fmt.Sprintf("TABSZ=%d", tabsz), func(b *testing.B) {
			cfd := workloadCFD(b, data.Clean, numAttrs, tabsz, 0.5)
			setup := newSingleCFDSetup(b, data.Dirty, cfd, sqlgen.DNF)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				setup.runBoth(b)
			}
		})
	}
}

func BenchmarkFig9dAttrs3(b *testing.B) { benchTabSize(b, 3) }
func BenchmarkFig9dAttrs4(b *testing.B) { benchTabSize(b, 4) }

// E5 — Figure 9(e): scalability in NUMCONSTs at SZ = 100K, TABSZ 1K,
// NUMATTRs 3 (more variables ⇒ less index-friendly joins ⇒ slower).
func BenchmarkFig9e(b *testing.B) {
	for pct := 100; pct >= 10; pct -= 10 {
		b.Run(fmt.Sprintf("NUMCONSTS=%d", pct), func(b *testing.B) {
			data := taxData(100000, 0.05)
			cfd := workloadCFD(b, data.Clean, 3, 1000, float64(pct)/100)
			setup := newSingleCFDSetup(b, data.Dirty, cfd, sqlgen.DNF)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				setup.runBoth(b)
			}
		})
	}
}

// E6 — Figure 9(f): scalability in NOISE at SZ = 100K with the full
// zip→state tableau (TABSZ 30K, NUMATTRs 2, NUMCONSTs 100%) — "all
// possible zip to state pairs, so as not to miss a violation".
func BenchmarkFig9f(b *testing.B) {
	cfd := gen.AllZipStateCFD(gen.NumZips)
	for noise := 0; noise <= 9; noise++ {
		b.Run(fmt.Sprintf("NOISE=%d", noise), func(b *testing.B) {
			data := taxData(100000, float64(noise)/100)
			setup := newSingleCFDSetup(b, data.Dirty, cfd, sqlgen.DNF)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				setup.runBoth(b)
			}
		})
	}
}

// E7 — Section 5 "Merging CFDs": the merged two-pass plan (QCΣ, QVΣ)
// against per-CFD validation, over three highly related CFDs
// (zip→state, zip+city→state, areacode→state; TABSZ 500 each).
func mergedWorkload(b *testing.B) (*Relation, []*CFD) {
	b.Helper()
	data := taxData(20000, 0.05)
	var sigma []*CFD
	for i, tpl := range []gen.Template{gen.ZipToState, gen.ZipCityToState, gen.AreaCodeToState} {
		cfd, err := gen.GenerateWorkloadCFD(data.Clean, gen.CFDConfig{
			Template: tpl, TabSize: 500, ConstPct: 1.0, Seed: int64(3 + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		sigma = append(sigma, cfd)
	}
	return data.Dirty, sigma
}

func benchDetectFull(b *testing.B, rel *Relation, sigma []*CFD, opts detect.Options) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := detect.Detect(rel, sigma, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMergedVsPerCFDMergedCNF(b *testing.B) {
	rel, sigma := mergedWorkload(b)
	benchDetectFull(b, rel, sigma, detect.Options{Strategy: detect.SQLMerged, Form: sqlgen.CNF})
}

func BenchmarkMergedVsPerCFDPerCFDCNF(b *testing.B) {
	rel, sigma := mergedWorkload(b)
	benchDetectFull(b, rel, sigma, detect.Options{Strategy: detect.SQLPerCFD, Form: sqlgen.CNF})
}

func BenchmarkMergedVsPerCFDPerCFDDNF(b *testing.B) {
	rel, sigma := mergedWorkload(b)
	benchDetectFull(b, rel, sigma, detect.Options{Strategy: detect.SQLPerCFD, Form: sqlgen.DNF})
}

// Ablations beyond the paper's figures: strategy comparison, reasoning
// costs, and repair throughput.

// BenchmarkStrategyDirect measures the pure-Go detector on the E7
// workload — the ceiling the SQL paths are compared against.
func BenchmarkStrategyDirect(b *testing.B) {
	rel, sigma := mergedWorkload(b)
	benchDetectFull(b, rel, sigma, detect.Options{Strategy: detect.Direct})
}

// BenchmarkDriverOverhead measures the database/sql layer on top of the
// engine (same plan, standard interface).
func BenchmarkDriverOverhead(b *testing.B) {
	rel, sigma := mergedWorkload(b)
	benchDetectFull(b, rel, sigma, detect.Options{Strategy: detect.SQLPerCFD, Form: sqlgen.DNF, ViaDriver: true})
}

// BenchmarkConsistency measures the Theorem 3.2 consistency check on a
// generated 200-pattern CFD plus the semantic set.
func BenchmarkConsistency(b *testing.B) {
	data := taxData(5000, 0)
	cfd, err := gen.GenerateWorkloadCFD(data.Clean, gen.CFDConfig{
		Template: gen.StateSalaryToTax, TabSize: 200, ConstPct: 1.0, Seed: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	sigma := append(gen.SemanticCFDs(), cfd)
	schema := gen.TaxSchema()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, _, err := core.Consistent(schema, sigma)
		if err != nil || !ok {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkImplication measures the Theorem 3.5 implication check.
func BenchmarkImplication(b *testing.B) {
	schema := gen.TaxSchema()
	sigma := gen.SemanticCFDs()
	phi := core.MustCFD([]string{"ZIP", "CT"}, []string{"ST"},
		core.PatternRow{X: []core.Pattern{core.W(), core.W()}, Y: []core.Pattern{core.W()}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := core.Implies(schema, sigma, phi)
		if err != nil || !ok {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkMinCover measures MinCover (Figure 4) on a redundant set.
func BenchmarkMinCover(b *testing.B) {
	schema := gen.TaxSchema()
	sigma := append(gen.SemanticCFDs(),
		core.MustCFD([]string{"ZIP", "CT"}, []string{"ST"},
			core.PatternRow{X: []core.Pattern{core.W(), core.W()}, Y: []core.Pattern{core.W()}}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.MinimalCover(schema, sigma); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepair measures the Section 6 heuristic end to end on a 5K
// instance with 5% noise.
func BenchmarkRepair(b *testing.B) {
	sigma := gen.SemanticCFDs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		data := gen.GenerateTax(gen.TaxConfig{Size: 5000, Noise: 0.05, Seed: int64(i)})
		b.StartTimer()
		res, err := repair.Repair(data.Dirty, sigma, repair.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Satisfied {
			b.Fatal("repair did not satisfy Σ")
		}
	}
}

// BenchmarkDiscovery measures CFD mining (the Section 7 extension) over a
// 5K clean instance with pairs of LHS attributes.
func BenchmarkDiscovery(b *testing.B) {
	data := gen.GenerateTax(gen.TaxConfig{Size: 5000, Noise: 0, Seed: 19})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := discovery.Discover(data.Clean, discovery.Config{MaxLHS: 2, MinSupport: 3})
		if err != nil {
			b.Fatal(err)
		}
		if len(ds) == 0 {
			b.Fatal("nothing discovered")
		}
	}
}

// discardBody is a ResponseWriter that keeps only an answer's first
// bytes, so a handler benchmark measures the handler, not a buffer.
type discardBody struct {
	h    http.Header
	head []byte
	code int
}

func (w *discardBody) Header() http.Header  { return w.h }
func (w *discardBody) WriteHeader(code int) { w.code = code }
func (w *discardBody) Write(p []byte) (int, error) {
	if n := min(len(p), cap(w.head)-len(w.head)); n > 0 {
		w.head = append(w.head, p[:n]...)
	}
	return len(p), nil
}

// BenchmarkDiscoverEndpoint measures one GET /v1/discover through a
// node's handler at the poll configuration on 20 000 dirty tax rows:
// the column read of the monitor's value IDs, the mining run and the
// streamed answer, whose count must equal what mining a snapshot finds.
func BenchmarkDiscoverEndpoint(b *testing.B) {
	data := gen.GenerateTax(gen.TaxConfig{Size: 20000, Noise: 0.05, Seed: 1})
	m, err := incremental.Load(data.Dirty, nil, incremental.Options{})
	if err != nil {
		b.Fatal(err)
	}
	s := node.New(m, nil)
	defer s.Close()
	h := s.Handler()
	ds, err := discovery.Discover(m.Snapshot(), discovery.Config{MaxLHS: 1, MinSupport: 2, MinConfidence: 1})
	if err != nil {
		b.Fatal(err)
	}
	count := []byte(fmt.Sprintf(`,"count":%d,`, len(ds)))
	req := httptest.NewRequest(http.MethodGet, "/v1/discover?max_lhs=1&min_support=2&min_confidence=1", nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := &discardBody{h: make(http.Header), head: make([]byte, 0, 256)}
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK || !bytes.Contains(w.head, count) {
			b.Fatalf("status %d, answer begins %s; want %s", w.code, w.head, count)
		}
	}
}

// E8 — incremental monitoring (beyond the paper): the serving-path claim
// that a single-tuple change costs O(affected buckets), not a rescan of I.
// One 100K dirty instance and three Section 5 CFD families; compare
// Monitor.Update against mutate-then-full-re-detect on the same workload.

func incrementalWorkload100K(b *testing.B) (*Relation, []*CFD) {
	b.Helper()
	data := taxData(100000, 0.05)
	var sigma []*CFD
	for i, tpl := range []gen.Template{gen.ZipToState, gen.ZipCityToState, gen.AreaCodeToState} {
		cfd, err := gen.GenerateWorkloadCFD(data.Clean, gen.CFDConfig{
			Template: tpl, TabSize: 500, ConstPct: 1.0, Seed: int64(3 + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		sigma = append(sigma, cfd)
	}
	return data.Dirty, sigma
}

// BenchmarkIncrementalUpdate100K: one Monitor.Update per iteration (the
// incremental path). Must come out ≥10× faster than the rescan below.
func BenchmarkIncrementalUpdate100K(b *testing.B) {
	rel, sigma := incrementalWorkload100K(b)
	m, err := incremental.Load(rel, sigma, incremental.Options{})
	if err != nil {
		b.Fatal(err)
	}
	n := int64(rel.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		val := "AAA"
		if i%2 == 1 {
			val = "BBB"
		}
		if _, err := m.Update(int64(i)%n, "CT", val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViewAfterUpdate100K: the read that pays for a write — one
// Update that heals or re-injects one of the generator's ST errors (so
// the violation set, and with it the view version, moves every
// iteration), then View, which rebuilds the CFDs the update moved.
func BenchmarkViewAfterUpdate100K(b *testing.B) {
	data := taxData(100000, 0.05)
	_, sigma := incrementalWorkload100K(b)
	m, err := incremental.Load(data.Dirty, sigma, incremental.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var flips []gen.CellChange
	for _, c := range data.Changes {
		if c.Attr == "ST" {
			flips = append(flips, c)
		}
	}
	m.View()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := flips[(i/2)%len(flips)]
		val := c.From
		if i%2 == 1 {
			val = c.To
		}
		if _, err := m.Update(int64(c.Row), "ST", val); err != nil {
			b.Fatal(err)
		}
		m.View()
	}
}

// BenchmarkRescanAfterUpdate100K: the batch baseline — apply the same
// single-tuple change to the relation, then re-run the full direct
// detector over all 100K tuples.
func BenchmarkRescanAfterUpdate100K(b *testing.B) {
	rel, sigma := incrementalWorkload100K(b)
	ctIdx := rel.Schema.MustIndex("CT")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		val := "AAA"
		if i%2 == 1 {
			val = "BBB"
		}
		rel.Tuples[i%rel.Len()][ctIdx] = val
		if _, err := detect.Detect(rel, sigma, detect.Options{Strategy: detect.Direct}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalInsertDelete100K: churn — one insert and one delete
// per iteration against the live 100K monitor.
func BenchmarkIncrementalInsertDelete100K(b *testing.B) {
	rel, sigma := incrementalWorkload100K(b)
	m, err := incremental.Load(rel, sigma, incremental.Options{})
	if err != nil {
		b.Fatal(err)
	}
	tuple := rel.Tuples[0].Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key, _, err := m.Insert(tuple)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Delete(key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonitorLoad100K: one-time index build cost for the serving path.
func BenchmarkMonitorLoad100K(b *testing.B) {
	rel, sigma := incrementalWorkload100K(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := incremental.Load(rel, sigma, incremental.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// E9 — durability (beyond the paper): the cost of the write-ahead log on
// the serving path's hot write, the cost of a full-state snapshot, and the
// payoff — cold-start recovery from snapshot + log tail vs re-parsing and
// re-indexing the CSV. bench/'s serve-write workload measures the same
// path end to end as first_answer_s and e2e.recover_s.

// durableUpdates drives n alternating CT updates through m. The value
// parity mixes in the pass number (i/tuples) so that when n exceeds the
// tuple count, revisiting a key flips its value — a same-value Update is
// not journaled, and a benchmark that degenerates into no-ops would
// understate the WAL append cost.
func durableUpdates(b *testing.B, m *incremental.Monitor, n, tuples int) {
	b.Helper()
	for i := 0; i < n; i++ {
		val := "AAA"
		if (i+i/tuples)%2 == 1 {
			val = "BBB"
		}
		if _, err := m.Update(int64(i)%int64(tuples), "CT", val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppend100K: one journaled Update per iteration — the E8 hot
// write plus a buffered write-ahead record.
func BenchmarkWALAppend100K(b *testing.B) {
	rel, sigma := incrementalWorkload100K(b)
	m, err := incremental.Load(rel, sigma, incremental.Options{Durable: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	b.ResetTimer()
	durableUpdates(b, m, b.N, rel.Len())
}

// BenchmarkWALAppendFsync100K: the same write with per-record fsync — the
// acknowledged-write-survives-power-loss configuration.
func BenchmarkWALAppendFsync100K(b *testing.B) {
	rel, sigma := incrementalWorkload100K(b)
	m, err := incremental.Load(rel, sigma, incremental.Options{Durable: b.TempDir(), Fsync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	b.ResetTimer()
	durableUpdates(b, m, b.N, rel.Len())
}

// BenchmarkSnapshot100K: one full-state snapshot (tuples, group indexes,
// violation set) plus generation roll per iteration.
func BenchmarkSnapshot100K(b *testing.B) {
	rel, sigma := incrementalWorkload100K(b)
	m, err := incremental.Load(rel, sigma, incremental.Options{Durable: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.ForceSnapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecover100K: cold-start from the latest snapshot plus a
// 1000-record log tail. Compare BenchmarkCSVColdStart100K — the ≥10×
// claim of the durable serving path.
func BenchmarkRecover100K(b *testing.B) {
	rel, sigma := incrementalWorkload100K(b)
	dir := b.TempDir()
	m, err := incremental.Load(rel, sigma, incremental.Options{Durable: dir})
	if err != nil {
		b.Fatal(err)
	}
	durableUpdates(b, m, 1000, rel.Len())
	if err := m.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A real cold start runs once against a fresh heap; collect the
		// previous iteration's garbage outside the timer so each sample
		// is a boot, not a boot plus its predecessor's GC debt.
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		rec, err := incremental.New(rel.Schema, sigma, incremental.Options{Durable: dir})
		if err != nil {
			b.Fatal(err)
		}
		if !rec.Recovered() || rec.Len() != rel.Len() {
			b.Fatalf("recovered %d tuples (recovered=%v)", rec.Len(), rec.Recovered())
		}
		if err := rec.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// E10 — batched ingest (the ChangeSet pipeline): the per-op cost of
// Monitor.Apply as a function of batch size, against the same workload
// the single-op E8/E9 series use. One batch is one apply loop and — in
// durable mode — one WAL record and one fsync, so ns/op must fall
// steeply with batch size; the fsync series carries the headline claim
// (a 1000-op ChangeSet ≥ 3× faster than 1000 single fsynced ops).

// benchApplyBatch drives b.N CT updates through m in ChangeSets of the
// given size, split across writers goroutines that each own a disjoint
// key range; ns/op is wall time per op. Values mix in the pass number so
// revisiting a key always flips it — a same-value update inside a batch
// journals but does not reindex, which would understate the apply cost.
func benchApplyBatch(b *testing.B, m *incremental.Monitor, tuples, size, writers int) {
	b.Helper()
	span := tuples / writers
	errs := make([]error, writers)
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < writers; w++ {
		ops := b.N / writers
		if w < b.N%writers {
			ops++
		}
		wg.Add(1)
		go func(w, ops int) {
			defer wg.Done()
			base := w * span
			for done := 0; done < ops; {
				n := min(size, ops-done)
				var cs incremental.ChangeSet
				for i := 0; i < n; i++ {
					op := done + i
					val := "AAA"
					if (op+op/span)%2 == 1 {
						val = "BBB"
					}
					cs.Update(int64(base+op%span), "CT", val)
				}
				if _, err := m.Apply(&cs); err != nil {
					errs[w] = err
					return
				}
				done += n
			}
		}(w, ops)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyBatch100K: memory-only batches — what apply-loop
// amortization and the interned hot path buy without the WAL.
func BenchmarkApplyBatch100K(b *testing.B) {
	rel, sigma := incrementalWorkload100K(b)
	for _, size := range []int{1, 16, 256, 1000} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			m, err := incremental.Load(rel, sigma, incremental.Options{})
			if err != nil {
				b.Fatal(err)
			}
			benchApplyBatch(b, m, rel.Len(), size, 1)
		})
	}
}

// BenchmarkApplyBatchDurable100K: journaled batches, buffered — one WAL
// record per batch instead of per op.
func BenchmarkApplyBatchDurable100K(b *testing.B) {
	rel, sigma := incrementalWorkload100K(b)
	for _, size := range []int{1, 16, 256, 1000} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			m, err := incremental.Load(rel, sigma, incremental.Options{Durable: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			benchApplyBatch(b, m, rel.Len(), size, 1)
		})
	}
}

// BenchmarkApplyBatchFsync100K: the acceptance series — durable mode
// with per-record fsync, where a 1000-op batch pays one sync and 1000
// single ops pay 1000. The multi-writer cases measure commit-window
// coalescing: concurrent writers that queue behind an in-flight fsync
// share the next window's record and sync, so their per-op cost falls
// toward the hand-batched rate as writers grow.
func BenchmarkApplyBatchFsync100K(b *testing.B) {
	rel, sigma := incrementalWorkload100K(b)
	for _, c := range []struct{ batch, writers int }{
		{1, 1}, {1000, 1}, {1, 16}, {16, 4},
	} {
		b.Run(fmt.Sprintf("batch=%d/writers=%d", c.batch, c.writers), func(b *testing.B) {
			m, err := incremental.Load(rel, sigma, incremental.Options{Durable: b.TempDir(), Fsync: true})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			benchApplyBatch(b, m, rel.Len(), c.batch, c.writers)
		})
	}
}

// BenchmarkCSVColdStart100K: the path Recover100K replaces — parse the
// 100K-row CSV and re-index every tuple through Load.
func BenchmarkCSVColdStart100K(b *testing.B) {
	rel, sigma := incrementalWorkload100K(b)
	var buf bytes.Buffer
	if err := relation.WriteCSV(&buf, rel); err != nil {
		b.Fatal(err)
	}
	csv := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC() // same cold-heap discipline as Recover100K
		b.StartTimer()
		parsed, err := relation.ReadCSV(bytes.NewReader(csv), "R")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := incremental.Load(parsed, sigma, incremental.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// E11 — discovery on demand (beyond the paper): GET /v1/discover mines
// a snapshot of the live instance from scratch on every call.

// BenchmarkDiscoverFull100K: mine the 100K instance from scratch.
func BenchmarkDiscoverFull100K(b *testing.B) {
	rel, _ := incrementalWorkload100K(b)
	cfg := discovery.Config{MaxLHS: 1, MinSupport: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := discovery.Discover(rel, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// E12 — live repair (beyond the paper): attaching the streaming
// Suggester must cost one drain of Σ's own groups plus one plan per
// multi-valued group: no tuple folded, and no plan per group.

// BenchmarkSuggesterAttach: NewSuggester plus the first Suggestions on
// the instance serve-read boots — 20 000 tax rows with 5 % noise, read
// from CSV and loaded as cfdserve loads them, under the
// semantic Σ plus a TABSZ-200 workload CFD at trust threshold 0.9 — the
// in-process part of serve-read's first_answer_s.
func BenchmarkSuggesterAttach(b *testing.B) {
	data := gen.GenerateTax(gen.TaxConfig{Size: 20000, Noise: 0.05, Seed: 1})
	sigma, err := core.ParseSet(core.FormatSet(append(gen.SemanticCFDs(), workloadCFD(b, data.Clean, 3, 200, 1.0))))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := relation.WriteCSV(&buf, data.Dirty); err != nil {
		b.Fatal(err)
	}
	rel, err := relation.ReadCSV(&buf, "R")
	if err != nil {
		b.Fatal(err)
	}
	m, err := incremental.Load(rel, sigma, incremental.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sg, err := repair.NewSuggester(m, repair.SuggestOptions{TrustThreshold: 0.9})
		if err != nil {
			b.Fatal(err)
		}
		if len(sg.Suggestions()) == 0 {
			b.Fatal("no suggestions on the dirty instance")
		}
		sg.Close()
	}
}
