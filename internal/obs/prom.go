package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered series in Prometheus text
// exposition format (version 0.0.4). Series are sorted by family name
// then label set, so output is deterministic for a fixed set of values;
// each family gets one HELP/TYPE header. Histograms are exposed with
// cumulative `le` buckets (upper bound 2^i−1 in scaled units — the
// largest value bucket i can hold), a `_sum`, and a `_count`; trailing
// empty buckets are elided and `+Inf` closes the series.
//
// Scraping is safe under concurrent metric updates: each atomic is read
// once and cumulative bucket counts are computed from that snapshot, so
// bucket monotonicity holds by construction.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ms := append([]*metric(nil), r.order...)
	r.mu.Unlock()
	sort.SliceStable(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return ms[i].labels < ms[j].labels
	})
	bw := bufio.NewWriter(w)
	lastName := ""
	for _, m := range ms {
		if m.name != lastName {
			fmt.Fprintf(bw, "# HELP %s %s\n", m.name, escapeHelp(m.help))
			fmt.Fprintf(bw, "# TYPE %s %s\n", m.name, m.kind)
			lastName = m.name
		}
		switch m.kind {
		case kindCounter:
			writeSeries(bw, m.name, "", m.labels, "", formatFloat(float64(m.c.Value())))
		case kindGauge:
			writeSeries(bw, m.name, "", m.labels, "", formatFloat(float64(m.g.Value())))
		case kindGaugeFunc:
			writeSeries(bw, m.name, "", m.labels, "", formatFloat(m.callFn()))
		case kindHistogram:
			writeHistogram(bw, m)
		}
	}
	return bw.Flush()
}

func writeHistogram(bw *bufio.Writer, m *metric) {
	counts, total := m.h.load()
	maxIdx := 0
	for i, c := range counts {
		if c > 0 {
			maxIdx = i
		}
	}
	var cum uint64
	for i := 0; i <= maxIdx; i++ {
		cum += counts[i]
		// Bucket i holds integer values < 2^i, so the inclusive upper
		// bound is 2^i − 1 (0, 1, 3, 7, ... in raw units).
		le := (math.Ldexp(1, i) - 1) / m.den
		writeSeries(bw, m.name, "_bucket", m.labels, `le="`+formatFloat(le)+`"`, strconv.FormatUint(cum, 10))
	}
	writeSeries(bw, m.name, "_bucket", m.labels, `le="+Inf"`, strconv.FormatUint(total, 10))
	writeSeries(bw, m.name, "_sum", m.labels, "", formatFloat(float64(m.h.Sum())/m.den))
	writeSeries(bw, m.name, "_count", m.labels, "", strconv.FormatUint(total, 10))
}

// writeSeries emits one sample line, merging the metric's pre-rendered
// labels with an optional extra label (the histogram `le`).
func writeSeries(bw *bufio.Writer, name, suffix, labels, extra, value string) {
	bw.WriteString(name)
	bw.WriteString(suffix)
	if labels != "" || extra != "" {
		bw.WriteByte('{')
		bw.WriteString(labels)
		if labels != "" && extra != "" {
			bw.WriteByte(',')
		}
		bw.WriteString(extra)
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(value)
	bw.WriteByte('\n')
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double quote, and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes HELP text: backslash and newline only.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
