package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// admin is the client for everything outside the measured traffic:
// loading, scrapes, oracles.
var admin = &http.Client{Timeout: 60 * time.Second}

func getJSON(url string, v any) error {
	resp, err := admin.Get(url)
	if err != nil {
		return err
	}
	return decodeJSON(resp, "GET "+url, v)
}

func postJSON(url string, body, v any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := admin.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	return decodeJSON(resp, "POST "+url, v)
}

func decodeJSON(resp *http.Response, what string, v any) error {
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", what, resp.StatusCode, tail(raw, 300))
	}
	if v == nil {
		return nil
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return nil
}

// series is one /metrics scrape: "name{labels}" → value. Histogram
// buckets are counted but not kept; sums and counts are.
type series map[string]float64

// scrape reads a node's Prometheus exposition. It returns the number of
// series exposed (buckets included) and how long the scrape took.
func scrape(base string) (series, int, time.Duration, error) {
	t0 := time.Now()
	resp, err := admin.Get(base + "/v1/metrics")
	if err != nil {
		return nil, 0, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	took := time.Since(t0)
	if err != nil {
		return nil, 0, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, 0, fmt.Errorf("GET %s/v1/metrics: status %d", base, resp.StatusCode)
	}
	s := series{}
	total := 0
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		total++
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.Contains(line[:i], "_bucket{") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("GET %s/v1/metrics: bad sample %q", base, line)
		}
		s[line[:i]] = v
	}
	return s, total, took, nil
}

// delta is the change of the timed phases in a set of nodes' series:
// after − before, summed over the nodes.
type delta struct {
	before, after []series
}

func (d delta) of(name string) float64 {
	var sum float64
	for i := range d.after {
		sum += d.after[i][name] - d.before[i][name]
	}
	return sum
}

// meanUS is a duration histogram's mean over the timed phases, in µs:
// Δsum ÷ Δcount. labels is the rendered label set ("" for none).
func (d delta) meanUS(hist, labels string) float64 {
	return 1e6 * ratio(d.of(hist+"_sum"+labels), d.of(hist+"_count"+labels))
}

func (d delta) count(hist, labels string) float64 { return d.of(hist + "_count" + labels) }
