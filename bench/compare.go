package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// runRecord is one line of a -out file.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Traced   bool    `json:"traced"`
	Result   *result `json:"result"`
}

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile() (*benchmarkFile, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// readRuns groups the untraced runs of a -out file: workload → metric →
// values, one per run.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if r.Traced || r.Result == nil {
			continue
		}
		if runs[r.Workload] == nil {
			runs[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			runs[r.Workload][name] = append(runs[r.Workload][name], m.Value)
		}
	}
	return runs, sc.Err()
}

// spread is the distance between the first and third quartile as a share
// of the median — the measure the repeatability criterion uses. The
// quartiles are Python's statistics.quantiles(values, n=4) (exclusive
// method), so the numbers match the driver's.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return ratio(q(3)-q(1), median(s))
}

// runCompare prints, per workload and end-to-end metric, both medians,
// how much worse the second is, and a verdict against the bound in
// BENCHMARK.json: ok, regressed, or unresolved when either side's own
// spread is wider than the bound. It returns the exit code: 1 if
// anything regressed.
func runCompare(w io.Writer, pathA, pathB string) int {
	bf, err := readBenchmarkFile()
	if err != nil {
		die("%v", err)
	}
	a, err := readRuns(pathA)
	if err != nil {
		die("%v", err)
	}
	b, err := readRuns(pathB)
	if err != nil {
		die("%v", err)
	}
	code := 0
	fmt.Fprintf(w, "%-13s %-15s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "a", "b", "worse", "spreadA", "spreadB", "bound", "verdict")
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-13s %-15s %12s %12s %8s %8s %8s %6.2f  missing\n", wl.Name, m.Name, "-", "-", "-", "-", "-", m.Bound)
				continue
			}
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				code = 1
			}
			fmt.Fprintf(w, "%-13s %-15s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %6.2f  %s\n",
				wl.Name, m.Name, ma, mb, 100*worse, 100*sa, 100*sb, m.Bound, verdict)
		}
	}
	return code
}
