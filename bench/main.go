// Command bench is the repository's benchmark: four workloads (the
// paper's batch cleaning path in-process, and three serving workloads
// against real cfdserve/cfdrouter processes over loopback sockets), a
// fixed set of end-to-end metrics from an untraced run, and a per-layer
// table from a traced run. See README.md for the catalogue and the
// reasons behind the sizing.
//
//	bash bench/run.sh --workload serve-write --seed 1 --seconds 15 --trace 0
//	go run -C bench . -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs and op streams")
		seconds  = flag.Float64("seconds", 15, "measured time: a third closed-loop, two thirds paced (batch-clean: the job loop)")
		trace    = flag.Int("trace", 0, "1 = traced run: record spans, scrape /metrics, print the per-layer metrics instead of the end-to-end ones")
		tiny     = flag.Bool("tiny", false, "smoke sizing: 1 000 tuples, for tests")
		out      = flag.String("out", "", "append this run's result as one JSON line to this file (input of -compare)")
		compare  = flag.Bool("compare", false, "compare two -out files: bench -compare a.jsonl b.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			die("usage: bench -compare a.jsonl b.jsonl")
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	w, ok := workloads[*workload]
	if !ok {
		die("unknown -workload %q (have %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 {
		die("-seconds must be positive")
	}
	if *tiny {
		w = w.tiny()
	}

	h, err := newHarness(*seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		die("%v", err)
	}
	// Every exit path below goes through h.cleanup, which kills the
	// process groups of all children and removes the state directory.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		h.fail(fmt.Errorf("received %v", s))
	}()
	// The watchdog: three times the expected wall time, and never more
	// than the 180 s the driver allows a run.
	limit := 3 * (h.seconds + 20*time.Second)
	if limit > 170*time.Second {
		limit = 170 * time.Second
	}
	time.AfterFunc(limit, func() {
		h.fail(fmt.Errorf("watchdog: workload %s still running after %v", w.name, limit))
	})

	res, err := h.run(w)
	if err != nil {
		h.fail(err)
	}
	h.cleanup()
	line, err := json.Marshal(res)
	if err != nil {
		die("%v", err)
	}
	if *out != "" {
		if err := appendRun(*out, w.name, *seed, *trace == 1, res); err != nil {
			die("%v", err)
		}
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// run executes one workload under a recover, so a panic in the harness
// still tears the children down.
func (h *harness) run(w workload) (res *result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	if err := h.build(w); err != nil {
		return nil, err
	}
	var r *report
	if w.batch {
		r, err = h.runBatch(w)
	} else {
		r, err = h.runServe(w)
	}
	if err != nil {
		return nil, err
	}
	r.print(os.Stdout, w.name, h.traced)
	if h.traced {
		path := filepath.Join(h.root, "bench", "out", w.name+".trace.json")
		if err := h.tr.write(path, w.name, h.scrapes); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	return r.result(h.traced)
}

// report collects every metric a run produced, with its sample count,
// plus the counts the contract's result line needs.
type report struct {
	e2e       map[string]sample
	layer     map[string]sample
	attempted int
	failed    int      // wrong, or right but answered after the latency limit
	wrong     int      // refused, undecodable or contradicting the request
	oracle    []string // mismatches; empty = every oracle green
}

type sample struct {
	value float64
	n     int // samples behind the value
}

func newReport() *report {
	return &report{e2e: map[string]sample{}, layer: map[string]sample{}}
}

// result projects the report onto the declared metric set: every
// end-to-end metric for an untraced run, every per-layer metric for a
// traced one. A declared metric the run did not produce is an error for
// end-to-end (they are defined on every workload) and 0 for a layer the
// workload bypasses.
func (r *report) result(traced bool) (*result, error) {
	res := &result{
		Correct:   len(r.oracle) == 0 && r.wrong == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if traced {
		for _, d := range perLayerMetrics {
			res.Metrics[d.name] = metric{Value: r.layer[d.name].value, Unit: d.unit}
		}
		for name := range r.layer {
			if _, ok := res.Metrics[name]; !ok {
				return nil, fmt.Errorf("internal: per-layer metric %q is not declared", name)
			}
		}
		return res, nil
	}
	for _, d := range endToEndMetrics {
		s, ok := r.e2e[d.name]
		if !ok || s.value <= 0 {
			return nil, fmt.Errorf("internal: end-to-end metric %q missing or zero", d.name)
		}
		res.Metrics[d.name] = metric{Value: s.value, Unit: d.unit}
	}
	return res, nil
}

func appendRun(path, workload string, seed int64, traced bool, res *result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	rec := runRecord{Workload: workload, Seed: seed, Traced: traced, Result: res}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
