package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"time"

	"repro"
	"repro/internal/sqlgen"
	"repro/internal/sqlmini"
)

// batchSetupReps is how often batch-clean prepares its inputs. Set-up and
// the first answer take some 20 ms each here, short enough for scheduling
// noise to move a single sample by a quarter, so there are many.
const batchSetupReps = 15

// discoveryCfg is the paper-side mining configuration of a job.
var discoveryCfg = repro.DiscoveryConfig{MaxLHS: 1, MinSupport: 10, MinConfidence: 0.95}

// coverSigma is what a job computes a minimal cover of: the first four
// semantic CFDs. MinimalCover's implication search is exponential in |Σ|
// (0.5 ms, 24 ms, 0.37 s and 5.3 s for three to six semantic CFDs) and
// does not finish once a workload CFD's constant rows are added, so the
// job covers the largest prefix that costs less than a detection pass.
var coverSigma = repro.SemanticTaxCFDs()[:4]

// The three detection passes of a job. StrategySQLMerged with FormDNF is
// left out on purpose: at TABSZ ≥ 500 it does not finish in ten minutes.
var detectPasses = []struct {
	layer string
	opts  repro.DetectOptions
}{
	{"detect.direct_ms", repro.DetectOptions{Strategy: repro.StrategyDirect}},
	{"detect.sql_percfd_dnf_ms", repro.DetectOptions{Strategy: repro.StrategySQLPerCFD, Form: repro.FormDNF}},
	{"detect.sql_merged_cnf_ms", repro.DetectOptions{Strategy: repro.StrategySQLMerged, Form: repro.FormCNF}},
}

// runBatch is batch-clean: the paper's workload on one goroutine through
// the repro facade. One job is Consistent + MinimalCover, Detect three
// ways, DiscoverCFDs and Repair over the dirty instance; jobs repeat
// until the measured time is up.
func (h *harness) runBatch(w workload) (*report, error) {
	rep := newReport()
	sb := h.tr.buf()
	root := sb.begin("workload."+w.name, 0, 0)

	// Set-up: generate, write the files a user would hand the tools, read
	// them back. first_answer_s is from there to the first list of
	// violations: the consistency check and one Direct detection, cold.
	var rel *repro.Relation
	var sigma []*repro.CFD
	var setups, firsts []float64
	sp := sb.begin("phase.setup", root, 0)
	for i := 0; i < batchSetupReps; i++ {
		dir := filepath.Join(h.state, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		gs := sb.begin("gen.generate", sp, 0)
		in, err := generate(w, h.seed, dir)
		sb.end(gs)
		if err != nil {
			return nil, err
		}
		addSample(rep.layer, "gen.generate_ms", 1e3*time.Since(t0).Seconds())
		ls := sb.begin("relation.csv_load", sp, 0)
		t1 := time.Now()
		f, err := os.Open(in.csvPath)
		if err != nil {
			return nil, err
		}
		rel, err = repro.ReadCSV(f, "R")
		f.Close()
		if err != nil {
			return nil, err
		}
		addSample(rep.layer, "relation.csv_load_ms", 1e3*time.Since(t1).Seconds())
		sb.end(ls)
		sigma = in.sigma
		setups = append(setups, time.Since(t0).Seconds())

		t2 := time.Now()
		fs := sb.begin("first_answer", sp, 0)
		ok, _, err := repro.Consistent(rel.Schema, sigma)
		if err == nil && !ok {
			err = fmt.Errorf("generated Σ is inconsistent")
		}
		if err == nil {
			_, err = repro.Detect(rel, sigma, directOpts)
		}
		sb.end(fs)
		if err != nil {
			return nil, err
		}
		firsts = append(firsts, time.Since(t2).Seconds())
	}
	sb.end(sp)
	rep.e2e["setup_s"] = sample{median(setups), len(setups)}
	rep.e2e["first_answer_s"] = sample{slices.Min(firsts), len(firsts)}

	// Warm-up: one untimed job.
	h.tr.on.Store(false)
	if _, err := h.job(rel, sigma, rep, sb, 0, nil); err != nil {
		return nil, err
	}
	h.tr.on.Store(h.traced)

	var jobs, detect, discover, repair []float64
	stage := map[string][]float64{}
	mined := -1
	lp := sb.begin("phase.jobs", root, 0)
	start := time.Now()
	var busy time.Duration
	var cpu float64
	for time.Since(start) < h.seconds {
		js := sb.begin("request.job", lp, int64(len(jobs)+1))
		out, err := h.job(rel, sigma, rep, sb, js, stage)
		sb.end(js)
		if err != nil {
			return nil, err
		}
		busy += out.total
		cpu += out.cpu
		jobs = append(jobs, 1e3*out.total.Seconds())
		detect = append(detect, out.detect.Seconds())
		discover = append(discover, out.discover.Seconds())
		repair = append(repair, out.repair.Seconds())
		if mined >= 0 && out.mined != mined {
			rep.oracle = append(rep.oracle, fmt.Sprintf("DiscoverCFDs found %d CFDs, the job before %d, on the same instance", out.mined, mined))
		}
		mined = out.mined
	}
	sb.end(lp)

	rep.attempted, rep.failed = len(jobs), 0
	rep.e2e["req_per_s"] = sample{float64(len(jobs)) / busy.Seconds(), len(jobs)}
	rep.e2e["p50_ms"] = sample{median(jobs), len(jobs)}
	rep.layer["e2e.p95_ms"] = sample{quantile(jobs, 0.95), len(jobs)}
	rep.layer["e2e.cpu_ms_per_req"] = sample{1e3 * cpu / float64(len(jobs)), len(jobs)}
	rep.e2e["rss_mb"] = sample{procStatusKB(os.Getpid(), "VmHWM:") / 1024, 1}
	rep.layer["e2e.detect_s"] = sample{median(detect), len(detect)}
	rep.layer["e2e.discover_s"] = sample{median(discover), len(discover)}
	rep.layer["e2e.repair_s"] = sample{median(repair), len(repair)}
	for name, xs := range stage {
		rep.layer[name] = sample{median(xs), len(xs)}
	}
	if h.traced {
		if err := h.probeSQL(rel, sigma, rep, sb, root); err != nil {
			return nil, err
		}
		if v, n, err := probeFsync(filepath.Join(h.state, "fsync-probe.wal")); err == nil {
			rep.layer["wal.fsync_us"] = sample{v, n}
		}
		rep.layer["trace.explained_ratio"] = sample{explainedByStages(stage, jobs), len(jobs)}
		// One process, no second half to compare: spans around seven
		// calls a job cost nothing measurable.
		rep.layer["trace.overhead_ratio"] = sample{1, len(jobs)}
	}
	for _, m := range rep.oracle {
		fmt.Fprintln(os.Stderr, "bench: oracle: "+m)
	}
	sb.end(root)
	return rep, nil
}

// jobOut is one job's times. total and cpu cover the seven facade calls
// only: the oracles that run between them are the harness's work, not the
// program's.
type jobOut struct {
	total, detect, discover, repair time.Duration
	cpu                             float64
	mined                           int
}

// job runs one cleaning job and its oracles: the three strategies must
// return identical results and the repaired instance must satisfy Σ.
// Stage times (ms) are appended to stage when it is not nil.
func (h *harness) job(rel *repro.Relation, sigma []*repro.CFD, rep *report, sb *spanBuf, parent int64, stage map[string][]float64) (jobOut, error) {
	var out jobOut
	timed := func(name string, fn func() error) (time.Duration, error) {
		s := sb.begin(name, parent, 0)
		c0, t0 := selfCPU(), time.Now()
		err := fn()
		d := time.Since(t0)
		out.cpu += selfCPU() - c0
		out.total += d
		sb.end(s)
		if stage != nil {
			stage[name] = append(stage[name], 1e3*d.Seconds())
		}
		return d, err
	}
	if _, err := timed("core.consistent_ms", func() error {
		ok, _, err := repro.Consistent(rel.Schema, sigma)
		if err == nil && !ok {
			err = fmt.Errorf("Σ is inconsistent")
		}
		return err
	}); err != nil {
		return out, err
	}
	if _, err := timed("core.mincover_ms", func() error {
		cover, err := repro.MinimalCover(rel.Schema, coverSigma)
		if err == nil && len(cover) == 0 {
			err = fmt.Errorf("minimal cover of a consistent Σ is empty")
		}
		return err
	}); err != nil {
		return out, err
	}
	var results []*repro.DetectResult
	for _, p := range detectPasses {
		d, err := timed(p.layer, func() error {
			r, err := repro.Detect(rel, sigma, p.opts)
			results = append(results, r)
			return err
		})
		if err != nil {
			return out, err
		}
		out.detect += d
	}
	for i := 1; i < len(results); i++ {
		if !results[0].Equal(results[i]) {
			rep.oracle = append(rep.oracle, fmt.Sprintf("%s disagrees with %s", detectPasses[i].layer, detectPasses[0].layer))
		}
	}
	found := 0
	for _, v := range results[0].PerCFD {
		found += len(v.ConstTuples) + len(v.VariableKeys)
	}
	var err error
	out.discover, err = timed("discovery.discover_ms", func() error {
		ds, err := repro.DiscoverCFDs(rel, discoveryCfg)
		out.mined = len(ds)
		return err
	})
	if err != nil {
		return out, err
	}
	var res *repro.RepairResult
	out.repair, err = timed("repair.batch_ms", func() error {
		res, err = repro.Repair(rel, sigma, repro.RepairOptions{})
		return err
	})
	if err != nil {
		return out, err
	}
	if ok, err := repro.SatisfiesSet(res.Repaired, sigma); err != nil || !ok {
		rep.oracle = append(rep.oracle, fmt.Sprintf("the repaired instance does not satisfy Σ (err %v)", err))
	}
	if stage != nil {
		stage["detect.violations_found"] = append(stage["detect.violations_found"], float64(found))
		stage["repair.cells_changed"] = append(stage["repair.cells_changed"], float64(len(res.Changes)))
	}
	return out, nil
}

// explainedByStages is Σ stage medians ÷ median job time.
func explainedByStages(stage map[string][]float64, jobs []float64) float64 {
	var sum float64
	for name, xs := range stage {
		if name != "detect.violations_found" && name != "repair.cells_changed" {
			sum += median(xs)
		}
	}
	return ratio(sum, median(jobs))
}

// probeSQL opens up the SQL detectors for the per-layer table [C]: the
// time to generate the (QC, QV) pair of every CFD plus the merged pair,
// and the time sqlmini takes to execute each CFD's pair, summed over Σ.
func (h *harness) probeSQL(rel *repro.Relation, sigma []*repro.CFD, rep *report, sb *spanBuf, parent int64) error {
	opts := sqlgen.Default(sqlgen.DNF)
	opts.IncludeRowid = true
	db := sqlmini.NewDB()
	db.RegisterRelation("R", rel)
	var gen, qcT, qvT time.Duration
	for i, c := range sigma {
		name := fmt.Sprintf("T%d", i)
		tab, err := sqlgen.TableauRelation(c, name, opts)
		if err != nil {
			return err
		}
		db.RegisterRelation(name, tab)
		s := sb.begin("sqlgen.generate", parent, 0)
		t0 := time.Now()
		qc, err := sqlgen.QC(c, "R", name, opts)
		if err != nil {
			return err
		}
		qv, err := sqlgen.QV(c, "R", name, opts)
		if err != nil {
			return err
		}
		gen += time.Since(t0)
		sb.end(s)
		for _, q := range []struct {
			span string
			sql  string
			into *time.Duration
		}{{"sqlmini.exec_qc", qc, &qcT}, {"sqlmini.exec_qv", qv, &qvT}} {
			s := sb.begin(q.span, parent, 0)
			t0 := time.Now()
			if _, err := db.Query(q.sql); err != nil {
				return fmt.Errorf("%s of CFD %d: %w", q.span, i, err)
			}
			*q.into += time.Since(t0)
			sb.end(s)
		}
	}
	s := sb.begin("sqlgen.generate", parent, 0)
	t0 := time.Now()
	m, err := sqlgen.Merge(sigma, sqlgen.Default(sqlgen.CNF))
	if err == nil {
		_, err = m.QC("R", "TX", "TY", sqlgen.Default(sqlgen.CNF))
	}
	if err == nil {
		_, err = m.QV("R", "TX", "TY", sqlgen.Default(sqlgen.CNF))
	}
	gen += time.Since(t0)
	sb.end(s)
	if err != nil {
		return err
	}
	rep.layer["sqlgen.generate_ms"] = sample{1e3 * gen.Seconds(), len(sigma) + 1}
	rep.layer["sqlmini.exec_qc_ms"] = sample{1e3 * qcT.Seconds(), len(sigma)}
	rep.layer["sqlmini.exec_qv_ms"] = sample{1e3 * qvT.Seconds(), len(sigma)}
	return nil
}

// selfCPU is this process's user+system CPU time in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
