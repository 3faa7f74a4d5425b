package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(7)
	g.Set(3)
	g.Add(-1)
	h.Observe(42)
	h.ObserveDuration(time.Millisecond)
	h.ObserveSince(time.Now())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("nil histogram quantile = %v, want 0", q)
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("g", "help")
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	var h Histogram
	h.Observe(0) // bucket 0
	h.Observe(1) // bucket 1: [1,2)
	h.Observe(5) // bucket 3: [4,8)
	h.Observe(5)
	if h.Count() != 4 || h.Sum() != 11 {
		t.Fatalf("count=%d sum=%d, want 4/11", h.Count(), h.Sum())
	}
	counts, total := h.load()
	if total != 4 {
		t.Fatalf("bucket total = %d, want 4", total)
	}
	for i, want := range map[int]uint64{0: 1, 1: 1, 3: 2} {
		if counts[i] != want {
			t.Fatalf("bucket[%d] = %d, want %d", i, counts[i], want)
		}
	}

	// Uniform 1..1000: the median estimate must land within its
	// power-of-two bucket's 2x bound of 500.
	var u Histogram
	for v := uint64(1); v <= 1000; v++ {
		u.Observe(v)
	}
	p50 := u.Quantile(0.5)
	if p50 < 256 || p50 > 1024 {
		t.Fatalf("p50 = %v, want within [256,1024]", p50)
	}
	p99 := u.Quantile(0.99)
	if p99 < 512 || p99 > 1024 {
		t.Fatalf("p99 = %v, want within [512,1024]", p99)
	}
	if q := u.Quantile(0); q > u.Quantile(1) {
		t.Fatalf("quantiles not ordered: q0=%v q1=%v", q, u.Quantile(1))
	}
}

func TestHistogramHugeValue(t *testing.T) {
	var h Histogram
	h.Observe(math.MaxUint64)
	counts, total := h.load()
	if total != 1 || counts[64] != 1 {
		t.Fatalf("max value must land in the top bucket, got total=%d top=%d", total, counts[64])
	}
	if q := h.Quantile(0.5); q <= 0 {
		t.Fatalf("quantile of top bucket = %v, want > 0", q)
	}
}

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help", L("op", "insert"))
	b := r.Counter("x_total", "other help", L("op", "insert"))
	if a != b {
		t.Fatal("same name+labels must return the same handle")
	}
	if c := r.Counter("x_total", "help", L("op", "delete")); c == a {
		t.Fatal("different labels must return a distinct handle")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("re-registering as a different type must panic")
		}
	}()
	r.Gauge("x_total", "help", L("op", "insert"))
}

func TestRegistryTypeScaleMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", "raw units")
	defer func() {
		if recover() == nil {
			t.Fatal("raw histogram re-registered as duration histogram must panic")
		}
	}()
	r.DurationHistogram("h", "seconds")
}

func TestGaugeFuncReplace(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("gf", "help", func() float64 { return 1 })
	r.GaugeFunc("gf", "help", func() float64 { return 2 })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "gf 2\n") {
		t.Fatalf("re-registered gauge func must win, got:\n%s", sb.String())
	}
}
