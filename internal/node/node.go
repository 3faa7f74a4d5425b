// Package node is a cfdserve node's HTTP surface: a Server wraps the
// served Monitor (and, on a standby, the Follower driving it) and
// answers the route table in Routes over internal/httpapi. cmd/cfdserve
// boots one behind a listener; cmd/cfdrouter's tests boot the same
// handlers as their shard nodes.
//
// GET /v1/repairs serves the live repair suggester: the first call
// attaches it to the monitor's group statistics, key marks and group
// deltas (one full planning pass); every later call re-plans only the
// keys and groups the interleaving writes marked. POST /v1/repairs/apply
// turns accepted ids into an ordinary fenced ChangeSet through the same
// apply path as POST /v1/apply. GET /v1/discover mines CFDs on demand:
// each call runs discovery over the served monitor's own value IDs,
// copied out under its store lock, one run at a time per node, and
// streams the answer.
//
// Fencing: every mutation may carry an X-Cfd-Epoch header stamping the
// epoch the caller believes this node's history is at (routers do). A
// mismatch is refused with 403 "fenced" and the node's epoch — the node
// either was deposed by a promotion or has already moved past the
// caller's stale token. POST /v1/promote durably bumps the epoch before
// the first write is accepted, and followers refuse /v1/wal/stream
// chunks whose epoch is below their own — a deposed primary cannot ship
// a forked history.
package node

import (
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/discovery"
	"repro/internal/httpapi"
	"repro/internal/incremental"
	"repro/internal/obs"
	"repro/internal/repair"
)

// processStart anchors the uptime reported by GET /v1/stats.
var processStart = time.Now()

// Server is one node's serving state.
type Server struct {
	// mv is the served monitor and fv the follower driving it (nil on a
	// primary). Both are atomic: a retention-window resync rebuilds the
	// replica and swaps them under live request traffic.
	mv atomic.Pointer[incremental.Monitor]
	fv atomic.Pointer[incremental.Follower]

	// Log is the diagnostic logger; nil falls back to slog.Default.
	Log *slog.Logger

	// discMu admits one GET /v1/discover run at a time: each copies and
	// mines the whole live state, so concurrent polls queue instead of
	// multiplying the memory one run takes. The answer is streamed after
	// the run, outside it, so a slow reader holds no other call up.
	discMu sync.Mutex

	// The lazily-attached repair suggester behind GET /v1/repairs,
	// cached per trust threshold: re-attaching costs a full planning
	// pass, so the one live suggester is kept until a request names a
	// different threshold.
	sugMu  sync.Mutex
	sug    *repair.Suggester
	sugThr float64
}

// New serves m; f is the follower driving it, nil on a primary.
func New(m *incremental.Monitor, f *incremental.Follower) *Server {
	s := &Server{}
	s.SetReplica(m, f)
	return s
}

// Monitor returns the currently served monitor.
func (s *Server) Monitor() *incremental.Monitor { return s.mv.Load() }

// Follower returns the follower, nil on a primary.
func (s *Server) Follower() *incremental.Follower { return s.fv.Load() }

// Logger never returns nil.
func (s *Server) Logger() *slog.Logger {
	if s.Log != nil {
		return s.Log
	}
	return slog.Default()
}

// SetReplica swaps in a (new) monitor + follower pair. The suggester is
// retired under sugMu — suggesterFor reads Monitor() under the same
// mutex, so it either caches against the new monitor or has its stale
// suggester closed here. The follower is stored before the monitor so a
// reader that sees the new monitor also sees its follower.
func (s *Server) SetReplica(m *incremental.Monitor, f *incremental.Follower) {
	s.sugMu.Lock()
	if s.sug != nil {
		s.sug.Close()
		s.sug = nil
	}
	s.fv.Store(f)
	s.mv.Store(m)
	s.sugMu.Unlock()
}

// Close flushes the durable state on the way out. A writable monitor —
// a primary, or a promoted standby — takes a final snapshot (so the next
// boot recovers instantly) and syncs its journal; a still-following
// replica must not roll its own generations, so its journal only closes
// through the follower.
func (s *Server) Close() error {
	if f := s.Follower(); f != nil {
		if err := f.Close(); err != nil || !f.Status().Promoted {
			return err
		}
	}
	m := s.Monitor()
	if m.JournalStats().Durable && !m.ReadOnly() {
		if err := m.ForceSnapshot(); err != nil {
			s.Logger().Error("final snapshot failed", "error", err)
		}
	}
	return m.Close()
}

// Handler serves Routes with the node's per-path metrics
// (cfdserve_http_*) on the served monitor's registry — the
// process-global one when the daemon wired it, a private one in tests,
// so httptest servers scrape hermetically.
func (s *Server) Handler() http.Handler {
	return httpapi.Handler("cfdserve", s.metrics(), s.Routes())
}

func (s *Server) metrics() *obs.Registry {
	if m := s.Monitor(); m != nil {
		return m.Metrics()
	}
	return obs.NewRegistry()
}

// Routes is the node's endpoint table.
func (s *Server) Routes() []httpapi.Route {
	get, post := httpapi.GET, httpapi.POST
	return append(httpapi.MutationRoutes(s.apply, nil), []httpapi.Route{
		get("/violations", s.violations,
			`the live violation set from the O(Δ) view: ?key=K point lookup, ?cfd=I filter, ?limit=N&cursor=C pages; ETag "vN" at view version N`),
		get("/repairs", s.repairs,
			`live cost-ranked repair suggestions: ?limit=N&cursor=C pages, ?trust_threshold=F relaxes CFDs whose live confidence is below F; ETag "rN" at suggestion version N`),
		post("/repairs/apply", s.repairsApply,
			`apply accepted suggestions as one ChangeSet: {"ids": ["c0:3", ...]} → {"ops", "edits", "delta"}`),
		get("/stats", s.stats, `tuples, violations, epoch, role, next_key, build; "wal" on durable nodes, "replica" on standbys`),
		get("/metrics", httpapi.MetricsHandler(s.metrics()), `Prometheus text exposition of the node's registry`),
		get("/discover", s.discover,
			`CFDs mined on demand from the live tuples, one commit window's state: ?max_lhs= (≤ 3) ?min_support= ?min_confidence= ?max_patterns=`),
		post("/snapshot", s.snapshot, `admin: force a snapshot generation now → {"generation"} (durable nodes)`),
		post("/promote", s.promote, `admin: flip a standby into a writable primary under a bumped epoch (idempotent)`),
		post("/fence", s.fence, `admin: {"epoch": E} — refuse every write under a lower epoch from now on`),
		get("/wal/snapshot", s.walSnapshot, `replication: the newest snapshot image (binary; X-Wal-Seq)`),
		get("/wal/stream", s.walStream,
			`replication: ?from=SEQ,OFF[&max=BYTES] → record-aligned WAL chunk (binary; X-Wal-* cursor headers)`),
	}...)
}

// apply is the node's write path under the shared mutation endpoints:
// it honors the X-Cfd-Epoch fencing stamp when the caller (a router)
// sent one — the write is refused unless this node's history is at
// exactly that epoch — and takes the plain path for single-node
// clients, for whom the node's own epoch is trivially current.
func (s *Server) apply(w http.ResponseWriter, r *http.Request, cs *incremental.ChangeSet, fallback int) (*incremental.Delta, bool) {
	m := s.Monitor()
	epoch, stamped, err := httpapi.RequestEpoch(r)
	var delta *incremental.Delta
	switch {
	case err != nil:
	case stamped:
		delta, err = m.ApplyAt(cs, epoch)
	default:
		delta, err = m.Apply(cs)
	}
	if err != nil {
		httpapi.WriteRoleError(w, err, m.Epoch(), fallback)
		return nil, false
	}
	return delta, true
}

// maxDiscoverLHS bounds max_lhs on the serving endpoint: the candidate
// lattice is exponential in it, and every call mines the whole snapshot
// — an unbounded value would let one cheap GET take the node's CPU and
// memory for minutes.
const maxDiscoverLHS = 3

// discoverConfig parses the /discover query params into a mining config,
// normalized to discovery's documented defaults so that the response
// reports the config that actually ran.
func discoverConfig(q url.Values) (discovery.Config, error) {
	cfg := discovery.Config{MaxLHS: 1, MinSupport: 2, MinConfidence: 1}
	intParam := func(name string, dst *int) error {
		if v := q.Get(name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("bad %s %q: %w", name, v, err)
			}
			*dst = n
		}
		return nil
	}
	if err := intParam("max_lhs", &cfg.MaxLHS); err != nil {
		return cfg, err
	}
	if err := intParam("min_support", &cfg.MinSupport); err != nil {
		return cfg, err
	}
	if err := intParam("max_patterns", &cfg.MaxPatterns); err != nil {
		return cfg, err
	}
	if v := q.Get("min_confidence"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return cfg, fmt.Errorf("bad min_confidence %q: %w", v, err)
		}
		cfg.MinConfidence = f
	}
	if cfg.MaxLHS > maxDiscoverLHS {
		return cfg, fmt.Errorf("max_lhs %d above the serving limit %d", cfg.MaxLHS, maxDiscoverLHS)
	}
	// Normalize the values discovery would default.
	if cfg.MaxLHS <= 0 {
		cfg.MaxLHS = 1
	}
	if cfg.MinSupport <= 0 {
		cfg.MinSupport = 2
	}
	if cfg.MinConfidence <= 0 {
		cfg.MinConfidence = 1
	}
	return cfg, cfg.Validate()
}

// suggesterFor returns the cached repair suggester when the trust
// threshold matches, otherwise attaches a fresh one (full planning
// pass) and retires the old.
func (s *Server) suggesterFor(thr float64) (*repair.Suggester, error) {
	s.sugMu.Lock()
	defer s.sugMu.Unlock()
	if s.sug != nil && s.sugThr == thr {
		return s.sug, nil
	}
	sg, err := repair.NewSuggester(s.Monitor(), repair.SuggestOptions{TrustThreshold: thr})
	if err != nil {
		return nil, err
	}
	if s.sug != nil {
		s.sug.Close()
	}
	s.sug, s.sugThr = sg, thr
	return sg, nil
}

// buildInfo is the binary's identity for GET /v1/stats, computed once:
// the Go version is always present, the rest as the build embedded it.
var buildInfo = sync.OnceValue(func() map[string]any {
	info := map[string]any{"go": runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return info
	}
	info["module"] = bi.Main.Path
	if bi.Main.Version != "" {
		info["version"] = bi.Main.Version
	}
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" {
			info["revision"] = kv.Value
		}
	}
	return info
})
