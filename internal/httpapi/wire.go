// Package httpapi is the one HTTP layer cfdserve and cfdrouter share:
// the JSON wire schema (this file), the error envelope in both
// directions (errors.go) and the serving mechanics — a route table per
// daemon, the metrics middleware, body limits, pagination and graceful
// shutdown (serve.go). A daemon declares []Route and handlers; nothing
// in cmd/ re-declares a type or helper found here.
package httpapi

import (
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/core"
	"repro/internal/incremental"
	"repro/internal/repair"
)

// Op is one mutation on the wire: an element of POST /v1/apply's "ops"
// and, minus "op", the body of the single-op endpoints. Key targets a
// delete or update; on an insert it is the optional caller-chosen key
// (a router owns the key space and pre-assigns every key).
type Op struct {
	Op     string   `json:"op,omitempty"`
	Values []string `json:"values,omitempty"`
	Key    *int64   `json:"key,omitempty"`
	Attr   string   `json:"attr,omitempty"`
	Value  string   `json:"value,omitempty"`
}

// DecodeOps builds the ChangeSet a wire op vector describes. A delete
// or update without a key is refused rather than aimed at key 0.
func DecodeOps(ops []Op) (*incremental.ChangeSet, error) {
	cs := &incremental.ChangeSet{}
	for i, o := range ops {
		switch {
		case o.Op == "insert" && o.Key != nil:
			cs.InsertKeyed(*o.Key, o.Values)
		case o.Op == "insert":
			cs.Insert(o.Values)
		case o.Op != "delete" && o.Op != "update":
			return nil, fmt.Errorf("ops[%d]: unknown op %q", i, o.Op)
		case o.Key == nil:
			return nil, fmt.Errorf("ops[%d]: %s requires a key", i, o.Op)
		case o.Op == "delete":
			cs.Delete(*o.Key)
		default:
			cs.Update(*o.Key, o.Attr, o.Value)
		}
	}
	return cs, nil
}

// EncodeOps is DecodeOps' inverse. Only a keyed insert carries its key,
// so the receiving node allocates exactly when the sender did not.
func EncodeOps(cs *incremental.ChangeSet) ([]Op, error) {
	ops := make([]Op, 0, len(cs.Ops))
	for i := range cs.Ops {
		op := &cs.Ops[i]
		key := &op.Key
		switch op.Kind {
		case incremental.OpInsert:
			if !op.Keyed() {
				key = nil
			}
			ops = append(ops, Op{Op: "insert", Key: key, Values: op.Tuple})
		case incremental.OpDelete:
			ops = append(ops, Op{Op: "delete", Key: key})
		case incremental.OpUpdate:
			ops = append(ops, Op{Op: "update", Key: key, Attr: op.Attr, Value: op.Value})
		default:
			return nil, fmt.Errorf("ops[%d]: unknown op kind %d", i, op.Kind)
		}
	}
	return ops, nil
}

// Change is one violation entering or leaving the live set: a constant
// violation names its tuple, a variable one its group's X-projection.
type Change struct {
	CFD   int      `json:"cfd"`
	Kind  string   `json:"kind"`
	Tuple *int64   `json:"tuple,omitempty"`
	Key   []string `json:"key,omitempty"`
}

// Delta is the "delta" field of every mutation answer.
type Delta struct {
	Added   []Change `json:"added"`
	Removed []Change `json:"removed"`
}

// EncodeDelta renders a violation delta for the wire.
func EncodeDelta(d *incremental.Delta) Delta {
	conv := func(cs []incremental.Change) []Change {
		out := make([]Change, 0, len(cs))
		for i := range cs {
			c := &cs[i]
			wc := Change{CFD: c.CFD, Kind: c.Kind.String()}
			if c.Kind == core.ConstViolation {
				wc.Tuple = &c.Tuple
			} else {
				wc.Key = c.Key
			}
			out = append(out, wc)
		}
		return out
	}
	return Delta{Added: conv(d.Added), Removed: conv(d.Removed)}
}

// Decode is EncodeDelta's inverse, for a router merging shard answers.
func (w Delta) Decode() (*incremental.Delta, error) {
	conv := func(in []Change) ([]incremental.Change, error) {
		out := make([]incremental.Change, 0, len(in))
		for _, c := range in {
			vc := incremental.Change{CFD: c.CFD}
			switch c.Kind {
			case core.ConstViolation.String():
				if c.Tuple == nil {
					return nil, fmt.Errorf("const change without tuple key")
				}
				vc.Kind, vc.Tuple = core.ConstViolation, *c.Tuple
			case core.VariableViolation.String():
				vc.Kind, vc.Key = core.VariableViolation, c.Key
			default:
				return nil, fmt.Errorf("unknown change kind %q", c.Kind)
			}
			out = append(out, vc)
		}
		return out, nil
	}
	added, err := conv(w.Added)
	if err != nil {
		return nil, err
	}
	removed, err := conv(w.Removed)
	if err != nil {
		return nil, err
	}
	return &incremental.Delta{Added: added, Removed: removed}, nil
}

// Edit is one concrete cell edit of a repair suggestion.
type Edit struct {
	Key  int64  `json:"key"`
	Attr string `json:"attr"`
	From string `json:"from"`
	To   string `json:"to"`
}

// EncodeEdits renders cell edits; never nil, so "edits" is always a list.
func EncodeEdits(edits []repair.CellEdit) []Edit {
	out := make([]Edit, 0, len(edits))
	for _, e := range edits {
		out = append(out, Edit{Key: e.Key, Attr: e.Attr, From: e.From, To: e.To})
	}
	return out
}

// Suggestion is one element of GET /v1/repairs' "suggestions". Key is
// set on tuple-level suggestions (constant violations), X on group-level
// ones (variable violations).
type Suggestion struct {
	ID         string   `json:"id"`
	CFD        int      `json:"cfd"`
	Kind       string   `json:"kind"`
	Cost       float64  `json:"cost"`
	Key        *int64   `json:"key,omitempty"`
	X          []string `json:"x,omitempty"`
	Attr       string   `json:"attr,omitempty"`
	To         string   `json:"to,omitempty"`
	Tuples     int      `json:"tuples,omitempty"`
	Confidence float64  `json:"confidence,omitempty"`
	Reason     string   `json:"reason,omitempty"`
	Edits      []Edit   `json:"edits,omitempty"`
}

// EncodeSuggestion renders one live repair suggestion.
func EncodeSuggestion(sg *repair.Suggestion) Suggestion {
	out := Suggestion{
		ID: sg.ID, CFD: sg.CFD, Kind: sg.Kind.String(), Cost: sg.Cost,
		X: sg.X, Attr: sg.Attr, To: sg.To, Tuples: sg.Tuples,
		Confidence: sg.Confidence, Reason: sg.Reason,
	}
	if sg.X == nil && sg.Kind != repair.SuggestRelax {
		out.Key = &sg.Key
	}
	if len(sg.Edits) > 0 {
		out.Edits = EncodeEdits(sg.Edits)
	}
	return out
}

// NodeStats is GET /v1/stats on a cfdserve node: what the node serves
// and what a router's backend and the read fan-out's staleness probe
// decode.
type NodeStats struct {
	Tuples        int            `json:"tuples"`
	Violations    int64          `json:"violations"`
	Satisfied     bool           `json:"satisfied"`
	Epoch         uint64         `json:"epoch"`
	Fenced        bool           `json:"fenced"`
	Role          string         `json:"role"`
	NextKey       int64          `json:"next_key"`
	UptimeSeconds float64        `json:"uptime_seconds"`
	Build         map[string]any `json:"build"`
	WAL           *WALStats      `json:"wal,omitempty"`     // durable nodes
	Replica       *ReplicaStats  `json:"replica,omitempty"` // nodes started with -follow
}

// WALStats is the durable-state block of NodeStats.
type WALStats struct {
	Dir               string `json:"dir"`
	Generation        uint64 `json:"generation"`
	SegmentRecords    int    `json:"segment_records"`
	Recovered         bool   `json:"recovered"`
	LastSnapshotError string `json:"last_snapshot_error,omitempty"`
}

// ReplicaStats is a follower's replication position (see
// incremental.ReplicaStatus); LastSync is RFC 3339 with nanoseconds.
type ReplicaStats struct {
	Following      bool   `json:"following"`
	Promoted       bool   `json:"promoted"`
	Seq            uint64 `json:"seq"`
	Offset         int64  `json:"offset"`
	AppliedRecords int64  `json:"applied_records"`
	PrimarySeq     uint64 `json:"primary_seq"`
	PrimaryOffset  int64  `json:"primary_offset"`
	LagBytes       int64  `json:"lag_bytes"`
	LagSegments    uint64 `json:"lag_segments"`
	LastSync       string `json:"last_sync,omitempty"`
	LastError      string `json:"last_error,omitempty"`
}

// EpochHeader stamps a mutation with the epoch its sender believes the
// node's history is at; a router sets it on every write it forwards.
const EpochHeader = "X-Cfd-Epoch"

// SetEpoch stamps an outgoing mutation.
func SetEpoch(req *http.Request, epoch uint64) {
	req.Header.Set(EpochHeader, strconv.FormatUint(epoch, 10))
}

// RequestEpoch reads a mutation's stamp; stamped is false for the
// single-node clients that send none.
func RequestEpoch(r *http.Request) (epoch uint64, stamped bool, err error) {
	h := r.Header.Get(EpochHeader)
	if h == "" {
		return 0, false, nil
	}
	if epoch, err = strconv.ParseUint(h, 10, 64); err != nil {
		return 0, true, fmt.Errorf("bad %s %q: %w", EpochHeader, h, err)
	}
	return epoch, true, nil
}

// WAL shipping: a chunk's body is raw framed records and its cursor
// protocol rides in these headers. SeqHeader also names the generation
// of a GET /v1/wal/snapshot image.
const (
	SeqHeader       = "X-Wal-Seq"
	offsetHeader    = "X-Wal-Offset"
	recordsHeader   = "X-Wal-Records"
	closedHeader    = "X-Wal-Closed"
	nextSeqHeader   = "X-Wal-Next-Seq"
	endSeqHeader    = "X-Wal-End-Seq"
	endOffsetHeader = "X-Wal-End-Offset"
	walEpochHeader  = "X-Wal-Epoch"
)

// WriteChunk answers GET /v1/wal/stream with one ship chunk.
func WriteChunk(w http.ResponseWriter, ch *incremental.ShipChunk) {
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set(SeqHeader, strconv.FormatUint(ch.Seq, 10))
	h.Set(offsetHeader, strconv.FormatInt(ch.Offset, 10))
	h.Set(recordsHeader, strconv.Itoa(ch.Records))
	h.Set(closedHeader, strconv.FormatBool(ch.Closed))
	h.Set(nextSeqHeader, strconv.FormatUint(ch.NextSeq, 10))
	h.Set(endSeqHeader, strconv.FormatUint(ch.EndSeq, 10))
	h.Set(endOffsetHeader, strconv.FormatInt(ch.EndOffset, 10))
	h.Set(walEpochHeader, strconv.FormatUint(ch.Epoch, 10))
	_, _ = w.Write(ch.Data) // a torn chunk is the follower's retry, not ours
}

// ReadChunk is WriteChunk's inverse on a 200 response. Every header is
// required: a missing fencing epoch must not read as the unfenced 0.
func ReadChunk(resp *http.Response) (incremental.ShipChunk, error) {
	var err error
	// 63 bits: every field then fits its int64 or uint64 destination.
	num := func(name string) uint64 {
		v, perr := strconv.ParseUint(resp.Header.Get(name), 10, 63)
		if perr != nil && err == nil {
			err = fmt.Errorf("bad %s %q: %v", name, resp.Header.Get(name), perr)
		}
		return v
	}
	ch := incremental.ShipChunk{
		Seq: num(SeqHeader), Offset: int64(num(offsetHeader)), Records: int(num(recordsHeader)),
		NextSeq: num(nextSeqHeader), EndSeq: num(endSeqHeader), EndOffset: int64(num(endOffsetHeader)),
		Epoch: num(walEpochHeader),
	}
	closed, perr := strconv.ParseBool(resp.Header.Get(closedHeader))
	if perr != nil && err == nil {
		err = fmt.Errorf("bad %s %q: %v", closedHeader, resp.Header.Get(closedHeader), perr)
	}
	if err != nil {
		return ch, err
	}
	ch.Closed = closed
	// A connection torn mid-chunk is a retryable fetch failure: drop
	// the partial chunk and let the caller re-request it.
	ch.Data, err = io.ReadAll(resp.Body)
	return ch, err
}
