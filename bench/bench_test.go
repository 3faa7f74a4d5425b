package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro"
)

// streamHash is the SHA-256 of the first n requests of every
// connection's stream, acknowledging each as it is drawn: the identity of
// a seed's op stream.
func streamHash(w workload, seed int64, in *inputs, n int) string {
	keys := make([]int64, len(in.data.Tuples))
	for i := range keys {
		keys[i] = int64(i)
	}
	hash := sha256.New()
	for conn := 0; conn < numConns; conn++ {
		g := newOpGen(w, seed, conn, numConns, in, int64(len(keys)))
		g.seedShadow(keys, in.data.Tuples, conn, numConns)
		for i := 0; i < n; i++ {
			r := g.nextRequest()
			fmt.Fprintf(hash, "%d %s %s %s\n", conn, r.method, r.path, r.body)
			g.sh.apply(r.ops)
		}
	}
	return hex.EncodeToString(hash.Sum(nil))
}

func TestStreamHashIsAFunctionOfTheSeed(t *testing.T) {
	w := workloads["serve-read"].tiny()
	hash := func(seed int64) string {
		in, err := generate(w, seed, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return streamHash(w, seed, in, 200)
	}
	a, b, c := hash(7), hash(7), hash(8)
	if a != b {
		t.Errorf("same seed, different op streams: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 give the same op stream %s", a)
	}
}

// A server that stalls once must inflate the latency of the requests
// that were due while it stalled, although each of them is answered
// quickly once sent: latency counts from due time, not from send time.
func TestPacedLatencyCountsFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	w := workload{name: "fake", mix: [numKinds]int{kStats: 100}}
	in := &inputs{data: newTaxRelation(t)}
	c := newConn(0, srv.URL, newOpGen(w, 1, 0, numConns, in, 0), newTracer(false))
	// 100 requests a second on this connection: one due every 10 ms.
	c.paced(0, time.Now(), 400*time.Millisecond, 100*numConns)
	if len(c.obs) != 40 {
		t.Fatalf("sent %d requests, the schedule holds 40: a late generator must not drop any", len(c.obs))
	}
	// Request 5 was due 50 ms in, 150 ms before the stall ended.
	o := c.obs[5]
	if o.lat < 100*time.Millisecond {
		t.Errorf("request due during the stall reports %v: timed from send, not from due", o.lat)
	}
	if o.rtt > 50*time.Millisecond {
		t.Errorf("request due during the stall took %v on the wire; the test server is too slow to tell", o.rtt)
	}
	last := c.obs[len(c.obs)-1]
	if last.lat > 50*time.Millisecond {
		t.Errorf("the backlog never drained: last request still %v late", last.lat)
	}
}

func TestSpanSelfTimesSumToTheRoot(t *testing.T) {
	tr := newTracer(true)
	b := tr.buf()
	root := b.begin("root", 0, 0)
	for i := 0; i < 3; i++ {
		req := b.begin("request", root, int64(i+1))
		for _, name := range []string{"encode", "roundtrip", "decode"} {
			s := b.begin(name, req, int64(i+1))
			time.Sleep(time.Millisecond)
			b.end(s)
		}
		b.end(req)
	}
	b.end(root)
	spans := tr.finish()
	if len(spans) != 13 {
		t.Fatalf("%d spans, want 13", len(spans))
	}
	var self, rootDur int64
	for _, s := range spans {
		if s.Self < 0 {
			t.Errorf("span %s has negative self time %d", s.Name, s.Self)
		}
		self += s.Self
		if s.Name == "root" {
			rootDur = s.End - s.Start
		}
	}
	if self != rootDur {
		t.Errorf("self times sum to %d ns, the root lasted %d ns", self, rootDur)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) = [2.75, 5.5, 8.25]
	xs := []float64{3, 1, 4, 2, 5, 10, 9, 8, 7, 6}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) = [1.0, 2.0, 4.0]
	if got, want := spread([]float64{4, 1, 2}), 1.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, setup, rate []float64) string {
		path := filepath.Join(dir, name)
		for i := range setup {
			res := &result{Correct: true, Attempted: 1, Metrics: map[string]metric{
				"setup_s": {setup[i], "s"}, "req_per_s": {rate[i], "1/s"},
			}}
			if err := appendRun(path, "serve-write", int64(i), false, res); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.jsonl", []float64{1.00, 1.01, 0.99}, []float64{100, 101, 99})
	b := write("b.jsonl", []float64{1.02, 1.01, 1.00}, []float64{50, 51, 49})
	var out bytes.Buffer
	if code := runCompare(&out, a, b); code != 1 {
		t.Errorf("exit code %d, want 1: req_per_s halved", code)
	}
	for _, want := range []string{"req_per_s", "regressed", "setup_s", "ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
	// The same fall inside a spread wider than the bound is unresolved.
	c := write("c.jsonl", []float64{1, 1, 1}, []float64{60, 80, 100})
	out.Reset()
	if code := runCompare(&out, a, c); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("exit code %d, want 0 and an unresolved row:\n%s", code, out.String())
	}
}

// The harness's metric tables and BENCHMARK.json are two copies of one
// catalogue; the driver reads the file, the harness prints from the
// tables.
func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the harness has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q; the harness has none", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(bf.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range bf.EndToEnd {
		if d := endToEndMetrics[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("end-to-end metric %d: file has %s [%s], harness %s [%s]", i, m.Name, m.Unit, d.name, d.unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(bf.PerLayer), len(perLayerMetrics))
	}
	for i, m := range bf.PerLayer {
		if d := perLayerMetrics[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer metric %d: file has %s [%s], harness %s [%s]", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
}

// Every workload, at smoke size against real daemons, must finish with
// no failed request and every oracle green, untraced and traced.
func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real daemons")
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			h, err := newHarness(3, 1500*time.Millisecond, traced)
			if err != nil {
				t.Fatal(err)
			}
			res, err := h.run(workloads[name].tiny())
			h.cleanup()
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (traced %v): correct %v, %d of %d failed", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := len(endToEndMetrics)
			if traced {
				want = len(perLayerMetrics)
			}
			if len(res.Metrics) != want {
				t.Errorf("%s (traced %v): %d metrics printed, %d declared", name, traced, len(res.Metrics), want)
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s: result does not marshal: %v", name, err)
			}
		}
		if _, err := os.Stat(filepath.Join("out", name+".trace.json")); err != nil {
			t.Errorf("%s: traced run left no span file: %v", name, err)
		}
	}
}

func newTaxRelation(t *testing.T) *repro.Relation {
	t.Helper()
	return repro.NewRelation(repro.TaxSchema())
}
