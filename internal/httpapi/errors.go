package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/incremental"
)

// Error is the body of every non-2xx response from either daemon:
//
//	{"error": {"code": "...", "message": "...", "epoch": E?}}
//
// Code is the machine-dispatched classification; Epoch rides along on
// "fenced" so the caller can refresh its token without another round
// trip. Decoded from a peer's response it is also a Go error that
// unwraps to the sentinel its code (or a 410) stands for.
type Error struct {
	Code    string  `json:"code"`
	Message string  `json:"message"`
	Epoch   *uint64 `json:"epoch,omitempty"`
	Status  int     `json:"-"`
}

func (e *Error) Error() string { return fmt.Sprintf("%s (%d %s)", e.Message, e.Status, e.Code) }

// Unwrap maps the wire classification back onto the error the sender
// dispatched on: a fenced or read-only node, or (410 on the shipping
// endpoints) a cursor below the primary's retention window.
func (e *Error) Unwrap() error {
	switch {
	case e.Code == "fenced":
		return incremental.ErrFenced
	case e.Code == "read_only":
		return incremental.ErrReadOnly
	case e.Status == http.StatusGone:
		return incremental.ErrSegmentGone
	}
	return nil
}

// CodeFor maps a response status to its envelope code; the role codes
// "fenced" and "read_only" are stamped by WriteRoleError instead.
func CodeFor(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusForbidden:
		return "fenced"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusConflict:
		return "conflict"
	case http.StatusGone:
		return "stale_cursor"
	case http.StatusRequestEntityTooLarge:
		return "too_large"
	case http.StatusBadGateway:
		return "bad_gateway"
	default:
		return "internal"
	}
}

// WriteJSON answers with v as the JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // the client hanging up mid-answer is not ours to handle
}

// Envelope is the error body for a status; callers that add sibling
// fields (the router's "failed" map) embed it under "error" themselves.
func Envelope(status int, err error) *Error {
	return &Error{Code: CodeFor(status), Message: err.Error(), Status: status}
}

// WriteError answers with the envelope for status.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]*Error{"error": Envelope(status, err)})
}

// WriteRoleError answers a refused mutation: a fenced node says 403
// "fenced" with its current epoch (the caller's token is stale —
// re-query and retry), a standby 409 "read_only" (promote it or write
// to the primary), and anything else is the caller's mistake at the
// fallback status.
func WriteRoleError(w http.ResponseWriter, err error, epoch uint64, fallback int) {
	e := Envelope(fallback, err)
	switch {
	case errors.Is(err, incremental.ErrFenced):
		e.Status, e.Code, e.Epoch = http.StatusForbidden, "fenced", &epoch
	case errors.Is(err, incremental.ErrReadOnly):
		e.Status, e.Code = http.StatusConflict, "read_only"
	}
	WriteJSON(w, e.Status, map[string]*Error{"error": e})
}

// ErrorFromResponse folds a peer's non-2xx response into an *Error. A
// body that is not the envelope (a proxy's HTML, a torn read) still
// yields one, carrying the status line.
func ErrorFromResponse(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var env struct {
		Error Error `json:"error"`
	}
	_ = json.Unmarshal(raw, &env) // leaves the zero Error on a foreign body
	e := &env.Error
	e.Status = resp.StatusCode
	if e.Message == "" {
		e.Message = resp.Status
	}
	return e
}
