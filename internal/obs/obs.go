// Package obs is the zero-dependency observability core: atomic
// counters, gauges, and lock-free power-of-two-bucket histograms,
// collected in registries that render themselves in Prometheus text
// exposition format.
//
// The design optimizes for the instrumented side, not the scrape side.
// Updating a metric is a handful of atomic adds — no locks, no
// allocations, no map lookups — so handles can sit directly on hot
// paths (the Monitor's apply pipeline observes four timers per batch).
// Scrapes walk the registry under a mutex and read each atomic once;
// a scrape racing a write may see a bucket count that is one update
// ahead of the total, which is harmless for monitoring and keeps the
// write path free.
//
// Every handle type tolerates a nil receiver: a nil *Counter,
// *Gauge, or *Histogram is a valid no-op, so a component may leave a
// handle unset (wal.LogStats, for one) without a second code path.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; a nil *Counter is a valid no-op handle.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reports the current count; 0 on a nil handle.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. The zero value is ready to
// use; a nil *Gauge is a valid no-op handle.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value reports the current value; 0 on a nil handle.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is one bucket per possible bit length of a uint64 (0..64).
// Bucket 0 holds the value 0; bucket i>=1 holds values in [2^(i-1), 2^i).
const histBuckets = 65

// Histogram is a fixed-layout histogram over uint64 values with
// power-of-two bucket boundaries: observing v increments the bucket at
// index bits.Len64(v). That gives ~2x resolution across the full range
// of a uint64 with no configuration, no allocation, and an O(1)
// lock-free Observe — exactly what a nanosecond-latency or byte-size
// distribution needs. The zero value is ready to use; a nil *Histogram
// is a valid no-op handle.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value in raw units.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// ObserveDuration records a duration as nanoseconds (negative clamps
// to zero).
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// ObserveSince records the time elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.ObserveDuration(time.Since(start))
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the sum of observed values in raw units.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// load snapshots the bucket counts. total is the sum of the buckets,
// which under concurrent writes may differ transiently from Count().
func (h *Histogram) load() (counts [histBuckets]uint64, total uint64) {
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	return counts, total
}

// Quantile estimates the q-quantile (0..1) of the observed values in
// raw units, interpolating linearly inside the winning bucket. With
// power-of-two buckets the estimate is within 2x of the true value,
// which is the right fidelity for p50/p95/p99 latency readouts. It
// reports 0 when nothing has been observed.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	counts, total := h.load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum < rank {
			continue
		}
		if i == 0 {
			return 0
		}
		lo := math.Ldexp(1, i-1)
		hi := math.Ldexp(1, i)
		frac := float64(rank-(cum-c)) / float64(c)
		return lo + frac*(hi-lo)
	}
	return math.Ldexp(1, histBuckets-1) // unreachable
}
