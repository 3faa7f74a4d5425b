package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval on the harness side of a layer boundary.
// Spans of one request share Req; Parent is the span that caused it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 = root
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Self is End−Start minus the part of that interval the span's
	// children cover; filled by finish.
	Self int64 `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. Each goroutine
// records into its own spanBuf, so the hot path takes no lock. When off,
// begin returns 0 and end ignores it: the untraced run pays one atomic
// load per call site.
type tracer struct {
	on   atomic.Bool
	t0   time.Time
	next atomic.Int64

	mu   sync.Mutex
	bufs []*spanBuf
}

type spanBuf struct {
	t     *tracer
	spans []span
	open  map[int64]int // id → index in spans
}

func newTracer(on bool) *tracer {
	t := &tracer{t0: time.Now()}
	t.on.Store(on)
	return t
}

// buf returns a recorder for one goroutine.
func (t *tracer) buf() *spanBuf {
	b := &spanBuf{t: t, open: map[int64]int{}}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

func (b *spanBuf) begin(name string, parent, req int64) int64 {
	if !b.t.on.Load() {
		return 0
	}
	id := b.t.next.Add(1)
	b.open[id] = len(b.spans)
	b.spans = append(b.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(b.t.t0))})
	return id
}

func (b *spanBuf) end(id int64) {
	if id == 0 {
		return
	}
	if i, ok := b.open[id]; ok {
		b.spans[i].End = int64(time.Since(b.t.t0))
		delete(b.open, id)
	}
}

// finish merges the buffers, drops spans never ended and fills the
// self-time column.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var all []span
	for _, b := range t.bufs {
		for _, s := range b.spans {
			if s.End >= s.Start && s.End != 0 {
				all = append(all, s)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	fillSelf(all)
	return all
}

// fillSelf computes each span's self time: its duration minus the union
// of its children's intervals (children of one parent may overlap — the
// two connections run side by side under one phase span).
func fillSelf(spans []span) {
	kids := map[int64][]int{}
	for i, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], i)
	}
	for i := range spans {
		s := &spans[i]
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		var covered, hi int64
		hi = s.Start
		for _, k := range ks {
			lo, end := spans[k].Start, spans[k].End
			if lo < hi {
				lo = hi
			}
			if end > s.End {
				end = s.End
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		s.Self = (s.End - s.Start) - covered
	}
}

// traceFile is what bench/out/<workload>.trace.json holds.
type traceFile struct {
	Workload string                        `json:"workload"`
	Spans    []span                        `json:"spans"`
	ByName   map[string]spanSummary        `json:"by_name"`
	Scrapes  map[string]map[string]float64 `json:"scrapes"`
}

type spanSummary struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (t *tracer) write(path, workload string, scrapes map[string]map[string]float64) error {
	spans := t.finish()
	by := map[string]spanSummary{}
	for _, s := range spans {
		sum := by[s.Name]
		sum.Count++
		sum.TotalMS += float64(s.End-s.Start) / 1e6
		sum.SelfMS += float64(s.Self) / 1e6
		by[s.Name] = sum
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(traceFile{Workload: workload, Spans: spans, ByName: by, Scrapes: scrapes}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
