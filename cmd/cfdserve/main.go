// Command cfdserve turns the incremental Monitor into a long-lived
// service: it loads a CSV instance and a CFD set once, then accepts
// tuple-level changes and violation queries over an HTTP/JSON API —
// every write answered with the exact violation delta it caused.
//
// Usage:
//
//	cfdserve -data tax.csv -cfds cfds.txt -http :8080
//	cfdserve -data tax.csv -cfds cfds.txt -http :8080 -wal-dir /var/lib/cfd
//	cfdserve -data tax.csv -cfds cfds.txt -http :8080 -wal-dir /var/lib/cfd \
//	         -fsync                                      # power-loss durable
//	cfdserve -cfds cfds.txt -http :8081 -wal-dir /var/lib/cfd2 \
//	         -follow http://primary:8080                 # hot standby
//	cfdserve -data tax.csv -cfds cfds.txt -http :8080 \
//	         -pprof-addr localhost:6060 -log-level debug -log-json
//
// See docs/operations.md for the full runbook: the endpoint list
// (generated from the route table in internal/node), the error
// envelope, topology recipes, promotion/failover procedure, the metrics
// catalog and tuning. A change stream is fed as ChangeSets through
// POST /v1/apply.
//
// With -wal-dir the node is durable: every accepted change is appended to
// a write-ahead log before it is applied, background snapshots bound the
// log, and a restart recovers the last acknowledged state from the
// directory — the CSV is only read on the very first boot. Every
// acknowledged write has reached the OS, so killing the process loses
// nothing; -fsync extends that to OS crash and power loss. Concurrent
// writers share commit windows: one WAL record (and one fsync) each. SIGTERM/SIGINT
// shut the server down gracefully: in-flight HTTP responses are flushed
// (http.Server.Shutdown), a final snapshot is taken and the journal is
// synced before the process exits.
//
// A durable node ships its WAL: GET /v1/wal/snapshot streams the newest
// snapshot image and GET /v1/wal/stream serves record-aligned segment
// chunks — closed segments (keep some with -retain-segments so a
// briefly-disconnected follower can resume instead of resyncing) and the
// live tail. With -follow <primary-url> the node runs as a hot
// standby instead: it tails the primary's stream into its own -wal-dir,
// serves /v1/violations, /v1/stats and /v1/discover from the replicated
// state, refuses mutations (409 "read_only"), and reports its
// replication lag under "replica" in /v1/stats. POST /v1/promote — or
// -promote-after, which does it automatically once the primary has been
// unreachable for that long — flips the standby into a writable primary
// at the exact record boundary it has applied; a follower restart
// resumes from its local snapshot + log tail, and a follower whose
// cursor fell below the primary's retention window resyncs from the
// current snapshot automatically. -data is not used in follow mode.
//
// Observability: every endpoint is wrapped in request/error counters and
// a latency histogram (cfdserve_http_* series, labeled by path), and the
// monitor's own instrumentation — apply-stage timings, WAL append/fsync
// latencies, replication lag, suggester refresh cost — is exposed through
// GET /v1/metrics in the Prometheus text format, no client library
// required. -pprof-addr serves net/http/pprof on a second, private
// listener for CPU/heap profiles. Diagnostics go through log/slog:
// -log-level picks the threshold (debug, info, warn, error) and
// -log-json switches the stderr stream to JSON lines; the startup
// banner stays on stdout for scripts that parse the bound address.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof-addr serves the DefaultServeMux handlers
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/cliutil"
	"repro/internal/httpapi"
	"repro/internal/node"
)

func main() {
	var (
		dataPath     = flag.String("data", "", "CSV instance to monitor (required, except in follow mode)")
		cfdPath      = flag.String("cfds", "", "CFD file in text notation (required)")
		httpAddr     = flag.String("http", "", "serve the HTTP API on this address (required)")
		walDir       = flag.String("wal-dir", "", "durable mode: write-ahead log + snapshots in this directory; restarts recover from it instead of reloading the CSV")
		fsync        = flag.Bool("fsync", false, "fsync the WAL after every commit window (acknowledged writes survive OS crash and power loss, not just process death; slower)")
		snapRecords  = flag.Int("snapshot-records", 10000, "roll a background snapshot after this many WAL records (0 = off)")
		snapInterval = flag.Duration("snapshot-interval", 0, "also snapshot on this wall-clock period, e.g. 5m (0 = off)")
		retainSegs   = flag.Int("retain-segments", 2, "durable mode: closed WAL segments kept behind the current one, so a briefly-disconnected follower resumes its cursor instead of resyncing (0 = none)")
		follow       = flag.String("follow", "", "run as a hot standby of this primary URL, tailing its WAL into -wal-dir (requires -wal-dir; -data is not used)")
		followPoll   = flag.Duration("follow-poll", 200*time.Millisecond, "follow mode: idle wait between tail polls once caught up")
		promoteAfter = flag.Duration("promote-after", 0, "follow mode: auto-promote to a writable primary once the primary has been unreachable this long (0 = manual POST /v1/promote)")
		pprofAddr    = flag.String("pprof-addr", "", "serve net/http/pprof on this second, private address (off when empty)")
		logLevel     = flag.String("log-level", "info", "log threshold: debug, info, warn or error")
		logJSON      = flag.Bool("log-json", false, "write logs to stderr as JSON lines instead of text")
	)
	flag.Parse()
	lg, err := cliutil.NewLogger(*logLevel, *logJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfdserve:", err)
		os.Exit(2)
	}
	if *httpAddr == "" || *cfdPath == "" || (*follow == "" && *dataPath == "") || (*follow != "" && *walDir == "") {
		fmt.Fprintln(os.Stderr, "cfdserve: -http and -cfds are required, plus -data (or -follow with -wal-dir)")
		flag.Usage()
		os.Exit(2)
	}
	opts := repro.MonitorOptions{
		Durable:        *walDir,
		Fsync:          *fsync,
		SnapshotEvery:  *snapRecords,
		RetainSegments: *retainSegs,
		// The daemon publishes on the process-global registry, so the
		// monitor's series and the HTTP middleware's land in one scrape.
		Metrics: repro.DefaultMetrics(),
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *pprofAddr != "" {
		go func() {
			lg.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				lg.Error("pprof server failed", "error", err)
			}
		}()
	}

	if *follow != "" {
		fo := repro.FollowOptions{
			Source:       newHTTPSource(strings.TrimRight(*follow, "/")),
			PollInterval: *followPoll,
			PromoteAfter: *promoteAfter,
		}
		if err := runFollower(ctx, lg, *cfdPath, *httpAddr, opts, fo); err != nil {
			lg.Error("follower failed", "error", err)
			os.Exit(2)
		}
		return
	}

	srv, err := newServer(*dataPath, *cfdPath, opts)
	if err != nil {
		lg.Error("startup failed", "error", err)
		os.Exit(2)
	}
	srv.Log = lg
	m := srv.Monitor()
	if *snapInterval > 0 && m.JournalStats().Durable {
		go snapshotLoop(ctx, srv, *snapInterval)
	}
	source := "loaded from CSV"
	if m.Recovered() {
		source = fmt.Sprintf("recovered from %s (generation %d)", *walDir, m.JournalStats().Generation)
	}
	lis, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		lg.Error("listen failed", "error", err)
		os.Exit(2)
	}
	fmt.Printf("monitoring %d tuples against %d CFDs on %s (%s)\n", m.Len(), len(m.Sigma()), lis.Addr(), source)
	err = httpapi.Serve(ctx, lis, srv.Handler())
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		lg.Error("server failed", "error", err)
		os.Exit(2)
	}
}

// runFollower is follow mode: boot (or resume) the standby, serve the
// read API, and supervise the tail loop until shutdown or promotion.
// After a promotion the same process keeps serving — now accepting
// writes — so failover does not even drop the listener.
func runFollower(ctx context.Context, lg *slog.Logger, cfdPath, httpAddr string, opts repro.MonitorOptions, fo repro.FollowOptions) error {
	sigma, err := cliutil.LoadCFDs(cfdPath)
	if err != nil {
		return err
	}
	f, err := repro.FollowMonitor(ctx, sigma, opts, fo)
	if err != nil {
		return err
	}
	srv := node.New(f.Monitor(), f)
	srv.Log = lg
	lis, err := net.Listen("tcp", httpAddr)
	if err != nil {
		f.Close()
		return err
	}
	st := f.Status()
	fmt.Printf("following %s from generation %d offset %d; serving %d tuples read-only on %s\n",
		fo.Source.(*httpSource).base, st.Seq, st.Offset, f.Monitor().Len(), lis.Addr())

	fctx, fcancel := context.WithCancel(ctx)
	defer fcancel()
	tailDone := make(chan struct{})
	go func() {
		defer close(tailDone)
		followLoop(fctx, srv, sigma, opts, fo)
	}()
	err = httpapi.Serve(ctx, lis, srv.Handler())
	fcancel()
	<-tailDone
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// followLoop supervises the tail loop: transient fetch errors retry
// inside Run, a cursor below the primary's retention window rebuilds the
// follower with a full resync (swapping the served monitor atomically),
// and promotion — POST /v1/promote or -promote-after — ends the loop
// with the monitor writable.
func followLoop(ctx context.Context, s *node.Server, sigma []*repro.CFD, opts repro.MonitorOptions, fo repro.FollowOptions) {
	for {
		f := s.Follower()
		err := f.Run(ctx)
		if err == nil || ctx.Err() != nil {
			if f.Status().Promoted {
				s.Logger().Info("promoted: accepting writes at the last applied record boundary")
			}
			return
		}
		if errors.Is(err, repro.ErrWALSegmentGone) {
			s.Logger().Warn("cursor below primary retention window; resyncing from snapshot")
			// The old follower must close first: the rebuild wipes and
			// re-locks the same local directory. Reads keep serving the
			// (now frozen) old monitor while the resync retries — a
			// transient failure must not leave a permanently dead
			// replica behind a live listener.
			f.Close()
			resync := fo
			resync.Resync = true
			for {
				nf, rerr := repro.FollowMonitor(ctx, sigma, opts, resync)
				if rerr == nil {
					s.SetReplica(nf.Monitor(), nf)
					break
				}
				s.Logger().Error("resync failed, will retry", "error", rerr)
				select {
				case <-ctx.Done():
					return
				case <-time.After(5 * time.Second):
				}
			}
			continue
		}
		// A local failure (full disk, poisoned journal): the tail loop
		// cannot safely continue, and promotion onto broken storage is
		// worse. Keep serving reads; the operator sees this and the
		// replica block's last_error.
		s.Logger().Error("follower stopped", "error", err)
		return
	}
}

// newServer boots a primary: from the WAL directory when it holds
// state, from the CSV otherwise.
func newServer(dataPath, cfdPath string, opts repro.MonitorOptions) (*node.Server, error) {
	sigma, err := cliutil.LoadCFDs(cfdPath)
	if err != nil {
		return nil, err
	}
	// A durable node that has booted before carries its state (schema
	// included) in the WAL directory — the CSV is not parsed, or even
	// required to exist, after the first boot.
	if opts.Durable != "" {
		m, err := repro.OpenMonitor(sigma, opts)
		if err == nil {
			return node.New(m, nil), nil
		}
		if !errors.Is(err, repro.ErrNoMonitorState) {
			return nil, err
		}
	}
	// The monitor interns the CSV's values once, in its bulk build; the
	// read itself keeps none of them.
	rel, err := cliutil.LoadCSV(dataPath)
	if err != nil {
		return nil, err
	}
	m, err := repro.LoadMonitor(rel, sigma, opts)
	if err != nil {
		return nil, err
	}
	return node.New(m, nil), nil
}

// snapshotLoop forces a snapshot on a wall-clock cadence, alongside the
// record-count trigger of -snapshot-records.
func snapshotLoop(ctx context.Context, s *node.Server, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := s.Monitor().ForceSnapshot(); err != nil {
				s.Logger().Error("periodic snapshot failed", "error", err)
			}
		}
	}
}

// --- the follower's HTTP chunk source ---

// httpSource implements the follower side of the shipping protocol over
// a primary cfdserve's /v1/wal endpoints.
type httpSource struct {
	base string
	c    http.Client
}

// newHTTPSource builds the source with bounded network waits: a primary
// that dies silently (power loss, partition with no RST) must surface
// as a fetch failure within seconds — not the kernel's many-minute TCP
// retransmission timeout — or -promote-after can never fire. Bodies are
// not deadline-bounded here (a snapshot ship is legitimately long);
// dial/header timeouts plus TCP keepalives bound the silent-death case,
// and Chunk adds its own per-call deadline.
func newHTTPSource(base string) *httpSource {
	return &httpSource{
		base: base,
		c: http.Client{
			Transport: &http.Transport{
				DialContext: (&net.Dialer{
					Timeout:   10 * time.Second,
					KeepAlive: 15 * time.Second,
				}).DialContext,
				ResponseHeaderTimeout: 30 * time.Second,
			},
		},
	}
}

// get fetches one shipping endpoint; the caller closes the 200 body. A
// 410 surfaces as ErrWALSegmentGone (via the envelope). Every other
// error STATUS still proves the primary is alive and answering, so it
// carries ErrPrimaryResponded — the follower retries on it but never
// arms -promote-after (only transport-level failures may).
func (h *httpSource) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+httpapi.Prefix+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusOK {
		return resp, nil
	}
	defer resp.Body.Close()
	err = httpapi.ErrorFromResponse(resp)
	if errors.Is(err, repro.ErrWALSegmentGone) {
		return nil, fmt.Errorf("primary: %w", err)
	}
	return nil, fmt.Errorf("primary: %v: %w", err, repro.ErrPrimaryResponded)
}

func (h *httpSource) Snapshot(ctx context.Context) (uint64, io.ReadCloser, error) {
	resp, err := h.get(ctx, "/wal/snapshot")
	if err != nil {
		return 0, nil, err
	}
	seq, err := strconv.ParseUint(resp.Header.Get(httpapi.SeqHeader), 10, 64)
	if err != nil {
		resp.Body.Close()
		return 0, nil, fmt.Errorf("primary snapshot: bad %s %q", httpapi.SeqHeader, resp.Header.Get(httpapi.SeqHeader))
	}
	return seq, resp.Body, nil
}

func (h *httpSource) Chunk(ctx context.Context, seq uint64, offset int64, maxBytes int) (repro.WALShipChunk, error) {
	// A chunk body is at most maxBytes plus framing; if it cannot arrive
	// within this deadline the connection is dead or useless, and the
	// tail loop should learn that rather than block.
	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	resp, err := h.get(ctx, fmt.Sprintf("/wal/stream?from=%d,%d&max=%d", seq, offset, maxBytes))
	if err != nil {
		return repro.WALShipChunk{}, err
	}
	defer resp.Body.Close()
	ch, err := httpapi.ReadChunk(resp)
	if err != nil {
		return ch, fmt.Errorf("primary chunk: %w", err)
	}
	return ch, nil
}
