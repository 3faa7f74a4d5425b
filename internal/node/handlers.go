package node

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/discovery"
	"repro/internal/httpapi"
	"repro/internal/incremental"
	"repro/internal/repair"
)

// perCFD is one CFD's entry in a /v1/violations answer.
type perCFD struct {
	CFD          int        `json:"cfd"`
	ConstTuples  []int64    `json:"const_tuples"`
	VariableKeys [][]string `json:"variable_keys"`
}

// violations serves the maintained violation view (a pointer load at an
// unchanged version, never a shard scan). A poll with If-None-Match at
// the current version is answered 304 from the version counter alone,
// without materializing anything.
func (s *Server) violations(w http.ResponseWriter, r *http.Request) {
	m := s.Monitor()
	q := r.URL.Query()
	if ks := q.Get("key"); ks != "" {
		key, err := strconv.ParseInt(ks, 10, 64)
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad key %q", ks))
			return
		}
		st, ok := m.ViolationsFor(key)
		if !ok {
			httpapi.WriteError(w, http.StatusNotFound, fmt.Errorf("no tuple with key %d", key))
			return
		}
		out := make([]perCFD, 0, len(st.PerCFD))
		for i, v := range st.PerCFD {
			if v.Total() > 0 {
				out = append(out, perCFD{CFD: i, ConstTuples: v.ConstTuples, VariableKeys: v.VariableKeys})
			}
		}
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"key": key, "per_cfd": out, "total": st.Total()})
		return
	}
	if httpapi.NotModified(w, r, "v", m.ViewVersion()) {
		return
	}
	// The view may already be past the counter just read; its own
	// version is what the ETag and the cursors are pinned to.
	view := m.View()
	if httpapi.NotModified(w, r, "v", view.Version()) {
		return
	}
	st := view.State()
	cfdSel := -1
	if cs := q.Get("cfd"); cs != "" {
		i, err := strconv.Atoi(cs)
		if err != nil || i < 0 || i >= len(st.PerCFD) {
			httpapi.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad cfd %q (have %d)", cs, len(st.PerCFD)))
			return
		}
		cfdSel = i
	}
	page, ok := httpapi.ParsePage(w, r, "v")
	if !ok || page.Stale(w, "v", view.Version()) {
		return
	}
	out, total, emitted := pageViolations(st, cfdSel, page)
	resp := map[string]any{"per_cfd": out, "total": total, "version": view.Version()}
	if page.Limit > 0 && emitted > 0 && page.Offset+emitted < total {
		resp["next_cursor"] = httpapi.Cursor("v", view.Version(), page.Offset+emitted)
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

// pageViolations cuts the page's window out of the state: violations
// are numbered CFD by CFD, constant ones before variable ones. total
// follows the ?cfd= filter; emitted is the window's size.
func pageViolations(st *incremental.State, cfdSel int, page httpapi.Page) (out []perCFD, total, emitted int) {
	room := page.Limit
	if page.Limit <= 0 {
		room = int(^uint(0) >> 1)
	}
	skip := page.Offset
	out = make([]perCFD, 0, len(st.PerCFD))
	for i, v := range st.PerCFD {
		if cfdSel >= 0 && i != cfdSel {
			continue
		}
		total += v.Total()
		if room == 0 && skip == 0 && page.Limit > 0 {
			continue
		}
		p := perCFD{CFD: i}
		if n := len(v.ConstTuples); skip < n {
			take := min(room, n-skip)
			p.ConstTuples = v.ConstTuples[skip : skip+take]
			room -= take
			skip = 0
		} else {
			skip -= n
		}
		if n := len(v.VariableKeys); room > 0 && skip < n {
			take := min(room, n-skip)
			p.VariableKeys = v.VariableKeys[skip : skip+take]
			room -= take
			skip = 0
		} else if room > 0 {
			skip -= n
		}
		if len(p.ConstTuples) > 0 || len(p.VariableKeys) > 0 || (page.Limit <= 0 && cfdSel < 0) {
			emitted += len(p.ConstTuples) + len(p.VariableKeys)
			out = append(out, p)
		}
	}
	return out, total, emitted
}

// repairs serves the live repair suggester: cost-ranked fix suggestions
// for the current violation set, re-planned in O(Δ) between calls.
func (s *Server) repairs(w http.ResponseWriter, r *http.Request) {
	thr, err := parseTrustThreshold(r.URL.Query().Get("trust_threshold"))
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, err)
		return
	}
	page, ok := httpapi.ParsePage(w, r, "r")
	if !ok {
		return
	}
	sg, err := s.suggesterFor(thr)
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, err)
		return
	}
	sg.Refresh()
	version := sg.Version()
	if httpapi.NotModified(w, r, "r", version) || page.Stale(w, "r", version) {
		return
	}
	sugs := sg.Suggestions()
	lo := min(page.Offset, len(sugs))
	hi := len(sugs)
	if page.Limit > 0 && lo+page.Limit < hi {
		hi = lo + page.Limit
	}
	out := make([]httpapi.Suggestion, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, httpapi.EncodeSuggestion(&sugs[i]))
	}
	resp := map[string]any{"suggestions": out, "total": len(sugs), "version": version}
	if hi < len(sugs) {
		resp["next_cursor"] = httpapi.Cursor("r", version, hi)
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

// parseTrustThreshold reads a repairs trust threshold: "" is 0, anything
// else must be a number in 0..1. Both repairs endpoints parse it here, so
// a threshold one refuses can never attach (and cache) a suggester
// through the other.
func parseTrustThreshold(v string) (float64, error) {
	if v == "" {
		return 0, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || !(f >= 0 && f <= 1) { // NaN fails both comparisons
		return 0, fmt.Errorf("bad trust_threshold %q (want 0..1)", v)
	}
	return f, nil
}

// repairsApply converts accepted suggestion ids into one ordinary
// ChangeSet and applies it through the same path as POST /v1/apply —
// fencing, WAL, group commit and replication all unchanged. Unknown or
// retired ids answer 404; the client re-fetches /v1/repairs and retries.
func (s *Server) repairsApply(w http.ResponseWriter, r *http.Request) {
	var req struct {
		IDs []string `json:"ids"`
		// TrustThreshold selects the same cached suggester a prior
		// GET /v1/repairs?trust_threshold=F attached.
		TrustThreshold json.Number `json:"trust_threshold"`
	}
	if !httpapi.ReadBody(w, r, &req) {
		return
	}
	if len(req.IDs) == 0 {
		httpapi.WriteError(w, http.StatusBadRequest, fmt.Errorf("ids is empty"))
		return
	}
	thr, err := parseTrustThreshold(string(req.TrustThreshold))
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, err)
		return
	}
	sg, err := s.suggesterFor(thr)
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, err)
		return
	}
	sg.Refresh()
	cs, edits, err := sg.Plan(req.IDs)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, repair.ErrUnknownSuggestion) {
			status = http.StatusNotFound
		}
		httpapi.WriteError(w, status, err)
		return
	}
	// With no ops every accepted edit already holds (another client
	// fixed the data first): nothing to journal.
	delta := &incremental.Delta{}
	if cs.Len() > 0 {
		var ok bool
		if delta, ok = s.apply(w, r, cs, http.StatusBadRequest); !ok {
			return
		}
		sg.Refresh()
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{
		"ops": cs.Len(), "edits": httpapi.EncodeEdits(edits), "delta": httpapi.EncodeDelta(delta),
	})
}

func (s *Server) stats(w http.ResponseWriter, r *http.Request) {
	m := s.Monitor()
	st := httpapi.NodeStats{
		Tuples:        m.Len(),
		Violations:    m.ViolationCount(),
		Satisfied:     m.Satisfied(),
		Epoch:         m.Epoch(),
		Fenced:        m.Fenced(),
		Role:          "primary",
		NextKey:       m.NextKey(),
		UptimeSeconds: time.Since(processStart).Seconds(),
		Build:         buildInfo(),
	}
	if m.ReadOnly() {
		st.Role = "follower"
	}
	if js := m.JournalStats(); js.Durable {
		st.WAL = &httpapi.WALStats{
			Dir: js.Dir, Generation: js.Generation, SegmentRecords: js.SegmentRecords,
			Recovered: js.Recovered, LastSnapshotError: js.LastSnapshotErr,
		}
	}
	if f := s.Follower(); f != nil {
		rs := f.Status()
		st.Replica = &httpapi.ReplicaStats{
			Following: rs.Following, Promoted: rs.Promoted, Seq: rs.Seq, Offset: rs.Offset,
			AppliedRecords: rs.AppliedRecords, PrimarySeq: rs.PrimarySeq, PrimaryOffset: rs.PrimaryOffset,
			LagBytes: rs.LagBytes, LagSegments: rs.LagSegments, LastError: rs.LastError,
		}
		if !rs.LastSync.IsZero() {
			st.Replica.LastSync = rs.LastSync.Format(time.RFC3339Nano)
		}
	}
	httpapi.WriteJSON(w, http.StatusOK, st)
}

// discover mines the CFDs that hold on the served monitor's live tuples
// under the config the query params select, one run at a time per node.
// The kernel runs on the monitor's own value IDs (Monitor.Columns), so
// no tuple is materialized, and the answer is streamed (writeDiscovered).
// tuples is the number of tuples mined. An empty monitor mines nothing.
func (s *Server) discover(w http.ResponseWriter, r *http.Request) {
	cfg, err := discoverConfig(r.URL.Query())
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, err)
		return
	}
	s.discMu.Lock()
	cols := s.Monitor().Columns()
	tuples := cols.Len()
	var ds []discovery.Discovered
	if tuples > 0 {
		ds, err = discovery.DiscoverColumns(cols, cfg)
	}
	s.discMu.Unlock()
	if err != nil {
		httpapi.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	writeDiscovered(w, cfg, tuples, ds)
}

// discoverConfigJSON and minedJSON are the parts of a /v1/discover
// answer; discoverConfigJSON's fields are in key order, as a map's are.
type discoverConfigJSON struct {
	MaxLHS        int     `json:"max_lhs"`
	MaxPatterns   int     `json:"max_patterns"`
	MinConfidence float64 `json:"min_confidence"`
	MinSupport    int     `json:"min_support"`
}

type minedJSON struct {
	LHS     []string `json:"lhs"`
	RHS     []string `json:"rhs"`
	IsFD    bool     `json:"is_fd"`
	Support []int    `json:"support"`
	CFD     string   `json:"cfd"`
}

// writeDiscovered answers 200 with the mined set: the bytes
// httpapi.WriteJSON writes for the object {config, count, mined, tuples},
// but written one mined CFD at a time — rendered, encoded, written and
// then dropped from ds — so the rendered answer is never whole in
// memory and what is left of the mined set shrinks as it goes.
func writeDiscovered(w http.ResponseWriter, cfg discovery.Config, tuples int, ds []discovery.Discovered) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// A write fails only once the client has hung up, and the failure
	// sticks (the response's buffered writer keeps it), so checking each
	// Encode is enough to stop rendering what nobody reads.
	enc := json.NewEncoder(trimNewline{w})
	_, _ = io.WriteString(w, `{"config":`)
	cj := discoverConfigJSON{MaxLHS: cfg.MaxLHS, MaxPatterns: cfg.MaxPatterns, MinConfidence: cfg.MinConfidence, MinSupport: cfg.MinSupport}
	if enc.Encode(cj) != nil {
		return
	}
	_, _ = fmt.Fprintf(w, `,"count":%d,"mined":[`, len(ds))
	for i := range ds {
		if i > 0 {
			_, _ = io.WriteString(w, ",")
		}
		d := &ds[i]
		if enc.Encode(minedJSON{LHS: d.CFD.LHS, RHS: d.CFD.RHS, IsFD: d.IsFD, Support: d.Support, CFD: d.CFD.String()}) != nil {
			return
		}
		*d = discovery.Discovered{}
	}
	_, _ = fmt.Fprintf(w, "],\"tuples\":%d}\n", tuples)
}

// trimNewline passes a json.Encoder's output on without the newline
// Encode ends every value with, so encoded values join into one
// document. Compact JSON holds no raw newline, so only that one goes.
type trimNewline struct{ w io.Writer }

func (t trimNewline) Write(p []byte) (int, error) {
	_, err := t.w.Write(bytes.TrimSuffix(p, []byte("\n")))
	return len(p), err
}

// durableStatus classifies a failed durable-state operation: asking a
// memory-only node for one is the caller's mistake (409), anything else
// on a durable node is a server-side disk problem (500).
func (s *Server) durableStatus() int {
	if !s.Monitor().JournalStats().Durable {
		return http.StatusConflict
	}
	return http.StatusInternalServerError
}

// snapshot rolls the WAL generation now, without waiting for the
// record-count or interval triggers.
func (s *Server) snapshot(w http.ResponseWriter, r *http.Request) {
	if err := s.Monitor().ForceSnapshot(); err != nil {
		status := s.durableStatus()
		if errors.Is(err, incremental.ErrReadOnly) {
			status = http.StatusConflict
		}
		httpapi.WriteError(w, status, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{"generation": s.Monitor().JournalStats().Generation})
}

// promote flips a follower into a writable primary at the record
// boundary it has applied; 409 on a node that is not following anything.
func (s *Server) promote(w http.ResponseWriter, r *http.Request) {
	f := s.Follower()
	if f == nil {
		httpapi.WriteError(w, http.StatusConflict, fmt.Errorf("not a follower"))
		return
	}
	if err := f.Promote(); err != nil {
		// A closed follower (mid-resync) cannot be promoted — the node's
		// state conflicts with the request; retry once the resync lands.
		httpapi.WriteError(w, http.StatusConflict, err)
		return
	}
	st := f.Status()
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{
		"promoted": true, "seq": st.Seq, "offset": st.Offset,
		"applied_records": st.AppliedRecords, "epoch": f.Monitor().Epoch(),
	})
}

// fence latches the node at an epoch. A router calls this on the
// deposed primary right after promoting a standby; Fence only ever
// raises the watermark, so it is safe on any role and to repeat.
func (s *Server) fence(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Epoch uint64 `json:"epoch"`
	}
	if !httpapi.ReadBody(w, r, &req) {
		return
	}
	m := s.Monitor()
	m.Fence(req.Epoch)
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{"epoch": m.Epoch(), "fenced": m.Fenced()})
}

// walSnapshot ships the newest snapshot image, for a follower's initial
// sync (or resync after falling below the retention window).
func (s *Server) walSnapshot(w http.ResponseWriter, r *http.Request) {
	seq, rc, size, err := s.Monitor().ShipSnapshot()
	if err != nil {
		httpapi.WriteError(w, s.durableStatus(), err)
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	w.Header().Set(httpapi.SeqHeader, strconv.FormatUint(seq, 10))
	_, _ = io.Copy(w, rc) // a torn image is the follower's retry
}

// walStream ships record-aligned chunks of a segment from a
// (generation, offset) cursor. 410 Gone tells the follower its cursor
// fell below the retention window.
func (s *Server) walStream(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var seq uint64
	var off int64
	if _, err := fmt.Sscanf(q.Get("from"), "%d,%d", &seq, &off); err != nil || off < 0 {
		httpapi.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad cursor %q (want from=SEQ,OFFSET)", q.Get("from")))
		return
	}
	maxBytes := 1 << 20
	if v := q.Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			httpapi.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad max %q", v))
			return
		}
		maxBytes = n
	}
	ch, err := s.Monitor().WALChunk(seq, off, maxBytes)
	if err != nil {
		status := s.durableStatus()
		if errors.Is(err, incremental.ErrSegmentGone) {
			status = http.StatusGone
		}
		httpapi.WriteError(w, status, err)
		return
	}
	httpapi.WriteChunk(w, &ch)
}
