package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"syscall"
	"time"
)

// numConns is the client side of the sizing: one process, two
// connections — what two cores can drive without the generator itself
// becoming the bottleneck.
const numConns = 2

// slowLimit fails a request: an answer later than this is no answer.
const slowLimit = time.Second

// obs is one completed request.
type obs struct {
	kind kind
	due  time.Duration // since the phase began (closed loop: when it was sent)
	lat  time.Duration // from due to the decoded response
	late time.Duration // send time − due: how late the generator ran
	enc  time.Duration // building the *http.Request
	rtt  time.Duration // Do + reading the body
	dec  time.Duration // checking and decoding the answer
}

// failedKind marks an observation that is no latency sample: the request
// failed or was answered too late.
const failedKind = numKinds

// conn is one client connection: its own TCP connection (a transport
// pinned to one), its own op stream and shadow, its own span buffer.
type conn struct {
	id   int
	base string
	hc   *http.Client
	gen  *opGen
	buf  *spanBuf
	etag [numKinds]string
	req  int64 // request ids: conn.id + n·numConns

	// side marks the connection that sends serve-read's once-a-second
	// GET /v1/discover beside the mix: a connection of its own, so it
	// cannot block a read behind it, on its own schedule in every phase.
	side bool

	obs       []obs
	attempted int
	failed    int // wrong + answered after slowLimit
	wrong     int // refused, undecodable or contradicting the request
	firstErr  error
	lastErr   error // of the most recent failed request
}

func newConn(id int, base string, gen *opGen, tr *tracer) *conn {
	return &conn{
		id: id, base: base, gen: gen, buf: tr.buf(), req: int64(id),
		hc: &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		},
	}
}

// do sends one request and checks the answer: 2xx (or 304 to a
// conditional poll), a body that decodes, and for a write the op count
// echoed back. An acknowledged write is folded into the shadow. parent
// is the span the request belongs to; due is when it was due and ready
// when it could first have been sent (due, or later if the connection was
// still busy with the request before).
func (c *conn) do(r *request, parent int64, due, ready time.Time) obs {
	c.req += numConns
	o := obs{kind: r.kind}
	c.attempted++
	rs := c.buf.begin("request."+kindNames[r.kind], parent, c.req)

	es := c.buf.begin("client.encode", rs, c.req)
	t0 := time.Now()
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	hr, err := http.NewRequest(r.method, c.base+r.path, body)
	if err == nil && r.body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	if err == nil && r.cond && c.etag[r.kind] != "" {
		hr.Header.Set("If-None-Match", c.etag[r.kind])
	}
	t1 := time.Now()
	c.buf.end(es)
	o.enc = t1.Sub(t0)
	o.late = t1.Sub(ready)
	if err != nil {
		return c.fail(o, rs, true, fmt.Errorf("%s %s: %w", r.method, r.path, err))
	}

	ts := c.buf.begin("client.roundtrip", rs, c.req)
	resp, err := c.hc.Do(hr)
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	t2 := time.Now()
	c.buf.end(ts)
	o.rtt = t2.Sub(t1)
	if err != nil {
		return c.fail(o, rs, true, fmt.Errorf("%s %s: %w", r.method, r.path, err))
	}

	ds := c.buf.begin("client.decode", rs, c.req)
	err = c.check(r, resp, raw)
	t3 := time.Now()
	c.buf.end(ds)
	o.dec = t3.Sub(t2)
	o.lat = t3.Sub(due)
	if err != nil {
		return c.fail(o, rs, true, err)
	}
	if r.ops != nil {
		c.gen.sh.apply(r.ops)
	}
	if o.lat > slowLimit { // acknowledged, so in the shadow, but too late to count
		return c.fail(o, rs, false, fmt.Errorf("%s %s: answered after %v (limit %v)", r.method, r.path, o.lat, slowLimit))
	}
	c.buf.end(rs)
	return o
}

// next draws the connection's next request.
func (c *conn) next() *request {
	if c.side {
		return c.gen.requestOf(kDiscover)
	}
	return c.gen.nextRequest()
}

// fail counts a failed request. A wrong answer makes the run incorrect;
// a right answer that came too late only counts as failed.
func (c *conn) fail(o obs, rs int64, wrong bool, err error) obs {
	c.failed++
	if wrong {
		c.wrong++
	}
	c.lastErr = err
	if c.firstErr == nil {
		c.firstErr = err
	}
	c.buf.end(rs)
	o.kind = failedKind
	return o
}

func (c *conn) check(r *request, resp *http.Response, raw []byte) error {
	if resp.StatusCode == http.StatusNotModified && r.cond {
		return nil
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("%s %s: status %d: %s", r.method, r.path, resp.StatusCode, tail(raw, 300))
	}
	if et := resp.Header.Get("ETag"); et != "" {
		c.etag[r.kind] = et
	}
	var v struct {
		Ops   *int `json:"ops"`
		Total *int `json:"total"`
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		return fmt.Errorf("%s %s: undecodable body: %w", r.method, r.path, err)
	}
	if r.kind == kWrite && (v.Ops == nil || *v.Ops != len(r.ops)) {
		return fmt.Errorf("POST /v1/apply: %d ops sent, answer says %v", len(r.ops), v.Ops)
	}
	if (r.kind == kPoint || r.kind == kPage || r.kind == kRepairs) && v.Total == nil {
		return fmt.Errorf("%s %s: answer has no total", r.method, r.path)
	}
	return nil
}

// closedLoop sends the connection's next request as soon as the previous
// one completed, until the deadline.
func (c *conn) closedLoop(parent int64, start time.Time, d time.Duration) {
	if c.side {
		c.paced(parent, start, d, 0)
		return
	}
	for {
		now := time.Now()
		if now.Sub(start) >= d {
			return
		}
		r := c.next()
		now = time.Now()
		c.record(c.do(r, parent, now, now), start, now)
	}
}

// paced sends on a fixed schedule — request i of this connection is due
// at start + offset + i·interval — and times each request from when it
// was due, so a stall is charged to every request it delayed. Nothing is
// ever dropped: a request whose slot has passed is sent at once. What the
// generator itself adds (sleep overshoot, building the request) is
// reported apart as lateness.
func (c *conn) paced(parent int64, start time.Time, d time.Duration, rate float64) {
	interval, offset := time.Second, time.Second/2 // the side connection, whatever the mix is paced at
	if !c.side {
		interval = time.Duration(float64(time.Second) * numConns / rate)
		offset = interval * time.Duration(c.id) / numConns
	}
	for i := 0; ; i++ {
		due := start.Add(offset + time.Duration(i)*interval)
		if due.Sub(start) >= d {
			return
		}
		r := c.next()
		ready := time.Now() // the request before has been answered
		if due.After(ready) {
			sleepUntil(due)
			ready = due
		}
		c.record(c.do(r, parent, due, ready), start, due)
	}
}

// sleepUntil blocks in nanosleep(2) until t. time.Sleep will not do for
// pacing: an idle Go runtime waits in epoll with a timeout rounded up to
// a millisecond, which made the generator 1.2 ms late at p99 whatever the
// rate. A signal (the runtime preempts with SIGURG) cuts a nanosleep
// short, hence the loop.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil)
	}
}

func (c *conn) record(o obs, start, due time.Time) {
	o.due = due.Sub(start)
	c.obs = append(c.obs, o)
}

// phase runs fn on every connection side by side and returns their
// observations, leaving each connection's buffer empty for the next
// phase.
func runPhase(conns []*conn, fn func(c *conn)) []obs {
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
	var all []obs
	for _, c := range conns {
		all = append(all, c.obs...)
		c.obs = c.obs[:0]
	}
	return all
}

// windowed returns the median over one-second windows of the
// q-quantile of the latencies (ms) of the given kinds, with the number
// of samples. A window with fewer than 20 samples is folded into its
// neighbour. One noisy second moves one window, not the metric.
func windowed(all []obs, q float64, kinds ...kind) (value float64, samples int) {
	want := [failedKind + 1]bool{}
	for _, k := range kinds {
		want[k] = true
	}
	byWin := map[int][]float64{}
	maxWin := 0
	for _, o := range all {
		if !want[o.kind] {
			continue
		}
		w := int(o.due / time.Second)
		byWin[w] = append(byWin[w], float64(o.lat)/1e6)
		if w > maxWin {
			maxWin = w
		}
		samples++
	}
	var qs []float64
	var carry []float64
	for w := 0; w <= maxWin; w++ {
		carry = append(carry, byWin[w]...)
		if len(carry) >= 20 {
			qs = append(qs, quantile(carry, q))
			carry = nil
		}
	}
	if len(qs) == 0 && len(carry) > 0 {
		qs = append(qs, quantile(carry, q))
	}
	return median(qs), samples
}
