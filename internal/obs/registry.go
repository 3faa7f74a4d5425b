package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Label is one name=value pair attached to a metric. Metrics that share
// a family name but differ in labels are distinct series under one
// HELP/TYPE header.
type Label struct{ Key, Value string }

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered series: a family name, a rendered label set,
// and exactly one live handle.
type metric struct {
	name   string
	help   string
	labels string // pre-rendered `k1="v1",k2="v2"`, keys sorted, values escaped
	kind   metricKind
	den    float64 // exposition divisor for histograms: 1 raw, 1e9 ns→seconds

	c *Counter
	g *Gauge
	h *Histogram

	mu sync.Mutex // guards fn, which re-registration may swap
	fn func() float64
}

func (m *metric) callFn() float64 {
	m.mu.Lock()
	fn := m.fn
	m.mu.Unlock()
	return fn()
}

func (m *metric) setFn(fn func() float64) {
	m.mu.Lock()
	m.fn = fn
	m.mu.Unlock()
}

// Registry is a set of metrics. Registration is idempotent: asking for
// a name+label set that already exists returns the existing handle
// (re-registering a GaugeFunc replaces its callback — latest wins), so
// a component rebuilt against a shared registry re-binds to its series
// instead of colliding. Asking for an existing series as a different
// type panics — that is a programming error, not a runtime condition.
//
// All methods are safe for concurrent use. A Registry must be created
// by NewRegistry (or obtained from Default); the zero value is not
// usable.
type Registry struct {
	mu    sync.Mutex
	byKey map[string]*metric
	order []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{byKey: make(map[string]*metric)} }

var std = NewRegistry()

// Default is the process-global registry — what a daemon wires its
// monitors and HTTP layer into so one scrape sees everything.
func Default() *Registry { return std }

func (r *Registry) register(name, help string, kind metricKind, den float64, labels []Label) *metric {
	ls := renderLabels(labels)
	key := name + "{" + ls + "}"
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		if m.kind != kind || m.den != den {
			panic(fmt.Sprintf("obs: metric %s re-registered as a different type", key))
		}
		return m
	}
	m := &metric{name: name, help: help, labels: ls, kind: kind, den: den}
	switch kind {
	case kindCounter:
		m.c = &Counter{}
	case kindGauge:
		m.g = &Gauge{}
	case kindHistogram:
		m.h = &Histogram{}
	}
	r.byKey[key] = m
	r.order = append(r.order, m)
	return m
}

// Counter registers (or re-binds to) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.register(name, help, kindCounter, 1, labels).c
}

// Gauge registers (or re-binds to) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.register(name, help, kindGauge, 1, labels).g
}

// GaugeFunc registers a gauge series whose value is computed by fn at
// scrape time — for state some other structure already maintains (live
// tuple counts, violation totals). Re-registering replaces the callback,
// so a rebuilt component points the series at its new instance.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGaugeFunc, 1, labels).setFn(fn)
}

// Histogram registers (or re-binds to) a histogram series over raw
// units (bytes, counts). Exposed bucket bounds are powers of two.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	return r.register(name, help, kindHistogram, 1, labels).h
}

// DurationHistogram registers (or re-binds to) a histogram that is
// observed in nanoseconds (ObserveDuration/ObserveSince) and exposed in
// seconds, per Prometheus convention.
func (r *Registry) DurationHistogram(name, help string, labels ...Label) *Histogram {
	return r.register(name, help, kindHistogram, 1e9, labels).h
}

// renderLabels pre-renders a label set in sorted key order so that the
// same labels always produce the same registry key and exposition text.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}
