package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/incremental"
	"repro/internal/obs"
)

// Prefix is the API version every route is registered under. An
// incompatible change ships as a second prefix alongside, never as an
// in-place change of what /v1 means.
const Prefix = "/v1"

// Route is one row of a daemon's endpoint table: the table drives
// registration, the method check, the per-path metrics and the endpoint
// list in docs/operations.md.
type Route struct {
	Method  string
	Path    string // below Prefix
	Handler http.HandlerFunc
	Doc     string // one line for the generated endpoint list
}

// GET and POST build the rows of a route table.
func GET(path string, h http.HandlerFunc, doc string) Route {
	return Route{http.MethodGet, path, h, doc}
}

func POST(path string, h http.HandlerFunc, doc string) Route {
	return Route{http.MethodPost, path, h, doc}
}

// statusWriter records the response status so the middleware can count
// error responses; an implicit 200 (first Write without WriteHeader) is
// recorded too.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Handler serves a route table. Each route gets a request counter, an
// error counter (status >= 400) and a latency histogram, labeled by its
// full path and named <daemon>_http_*; the handles are registered up
// front so the hot path only does atomic adds. A known path under the
// wrong method answers 405 and anything else 404, both in the envelope.
func Handler(daemon string, reg *obs.Registry, routes []Route) http.Handler {
	mux := http.NewServeMux()
	for _, rt := range routes {
		path := obs.L("path", Prefix+rt.Path)
		reqs := reg.Counter(daemon+"_http_requests_total", "HTTP requests served, by endpoint.", path)
		errs := reg.Counter(daemon+"_http_errors_total", "HTTP responses with status >= 400, by endpoint.", path)
		dur := reg.DurationHistogram(daemon+"_http_request_seconds", "HTTP request latency, by endpoint.", path)
		mux.HandleFunc(Prefix+rt.Path, func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			sw := statusWriter{ResponseWriter: w}
			if r.Method == rt.Method {
				rt.Handler(&sw, r)
			} else {
				sw.Header().Set("Allow", rt.Method)
				WriteError(&sw, http.StatusMethodNotAllowed, fmt.Errorf("%s required", rt.Method))
			}
			reqs.Inc()
			if sw.status >= 400 {
				errs.Inc()
			}
			dur.ObserveSince(start)
		})
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusNotFound, fmt.Errorf("no endpoint %s (the API lives under %s/)", r.URL.Path, Prefix))
	})
	return mux
}

// MaxBodyBytes bounds a request body: three orders above the largest
// batch any client in the tree sends, far below what would hurt.
const MaxBodyBytes = 64 << 20

// ReadBody decodes a JSON request body into v, answering 413 for one
// over MaxBodyBytes and 400 for one that does not parse; it reports
// whether the handler should go on.
func ReadBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		WriteError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("body over %d bytes", tooLarge.Limit))
	default:
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad JSON body: %w", err))
	}
	return false
}

// Page is the window a paginated read asked for over a versioned set:
// /v1/violations pages the view (tag "v"), /v1/repairs the suggestions
// (tag "r"). Cursors are "<tag><version>:<offset>" — stable within one
// version and refused once the set has moved on.
type Page struct {
	Limit  int // 0: everything from Offset on
	Offset int
	cursor string
	pinned uint64
}

// ParsePage reads ?limit= and ?cursor=, answering 400 on a malformed
// one.
func ParsePage(w http.ResponseWriter, r *http.Request, tag string) (Page, bool) {
	q := r.URL.Query()
	var p Page
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n <= 0 {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", ls))
			return p, false
		}
		p.Limit = n
	}
	if p.cursor = q.Get("cursor"); p.cursor != "" {
		if _, err := fmt.Sscanf(p.cursor, tag+"%d:%d", &p.pinned, &p.Offset); err != nil || p.Offset < 0 {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("bad cursor %q", p.cursor))
			return p, false
		}
	}
	return p, true
}

// Stale answers 410 when the page's cursor was issued at another
// version of the set.
func (p Page) Stale(w http.ResponseWriter, tag string, version uint64) bool {
	if p.cursor == "" || p.pinned == version {
		return false
	}
	WriteError(w, http.StatusGone, fmt.Errorf("cursor %q expired (the set is at %s%d)", p.cursor, tag, version))
	return true
}

// Cursor names the position offset within one version of the set.
func Cursor(tag string, version uint64, offset int) string {
	return fmt.Sprintf("%s%d:%d", tag, version, offset)
}

// NotModified stamps the response with the set's ETag and, when the
// request's If-None-Match already holds it, answers a bodyless 304.
func NotModified(w http.ResponseWriter, r *http.Request, tag string, version uint64) bool {
	etag := fmt.Sprintf("%q", fmt.Sprintf("%s%d", tag, version))
	w.Header().Set("ETag", etag)
	if r.Header.Get("If-None-Match") != etag {
		return false
	}
	w.WriteHeader(http.StatusNotModified)
	return true
}

// MetricsHandler serves a registry in the Prometheus text format.
func MetricsHandler(reg *obs.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w) // fails only when the scraper hung up
	}
}

// ApplyFunc runs one request's ChangeSet on a daemon's write path. It
// answers a failure itself — fallback being the status of a refusal
// that is the caller's fault — and reports whether delta is valid.
type ApplyFunc func(w http.ResponseWriter, r *http.Request, cs *incremental.ChangeSet, fallback int) (delta *incremental.Delta, ok bool)

// MutationRoutes is the write surface both daemons serve, over their
// own write path: three single-op endpoints and the batch. owner, when
// non-nil, names the shard an insert's key landed on (the router's
// "shard" field).
func MutationRoutes(apply ApplyFunc, owner func(key int64) string) []Route {
	// run decodes, applies and answers {"delta", ...}; extra adds the
	// endpoint's own fields from the applied ChangeSet.
	run := func(w http.ResponseWriter, r *http.Request, ops []Op, fallback int, extra func(*incremental.ChangeSet, map[string]any)) {
		cs, err := DecodeOps(ops)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		delta, ok := apply(w, r, cs, fallback)
		if !ok {
			return
		}
		resp := map[string]any{"delta": EncodeDelta(delta)}
		extra(cs, resp)
		WriteJSON(w, http.StatusOK, resp)
	}
	single := func(kind string, fallback int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			var op Op
			if !ReadBody(w, r, &op) {
				return
			}
			op.Op = kind
			run(w, r, []Op{op}, fallback, func(cs *incremental.ChangeSet, resp map[string]any) {
				if kind != "insert" {
					return
				}
				resp["key"] = cs.Ops[0].Key
				if owner != nil {
					resp["shard"] = owner(cs.Ops[0].Key)
				}
			})
		}
	}
	batch := func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Ops []Op `json:"ops"`
		}
		if !ReadBody(w, r, &req) {
			return
		}
		run(w, r, req.Ops, http.StatusBadRequest, func(cs *incremental.ChangeSet, resp map[string]any) {
			keys := make([]int64, 0, len(cs.Ops))
			for i := range cs.Ops {
				if cs.Ops[i].Kind == incremental.OpInsert {
					keys = append(keys, cs.Ops[i].Key)
				}
			}
			resp["ops"], resp["keys"] = cs.Len(), keys
		})
	}
	return []Route{
		POST("/insert", single("insert", http.StatusBadRequest),
			`add a tuple: {"values": [...], "key"?: K} → {"key", "delta"} (the router adds "shard")`),
		POST("/delete", single("delete", http.StatusNotFound),
			`remove a tuple: {"key": K} → {"delta"}`),
		POST("/update", single("update", http.StatusBadRequest),
			`change one attribute: {"key": K, "attr": A, "value": V} → {"delta"}`),
		POST("/apply", batch,
			`one ChangeSet, atomic per node: {"ops": [{"op": "insert"|"delete"|"update", ...}]} → {"ops", "keys", "delta"}`),
	}
}

// Header and idle timeouts every listener gets. There is deliberately
// no write timeout: a snapshot ship is legitimately long.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	shutdownGrace     = 10 * time.Second
)

// Serve serves h on lis until ctx is cancelled, then shuts down
// gracefully: the listener closes, in-flight responses are flushed, and
// only then does the call return.
func Serve(ctx context.Context, lis net.Listener, h http.Handler) error {
	hs := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(lis) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
