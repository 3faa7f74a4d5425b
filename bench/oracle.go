package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"repro"
)

// directOpts selects the oracle: the pure-Go hash detector.
var directOpts = repro.DetectOptions{Strategy: repro.StrategyDirect}

type violationsBody struct {
	PerCFD []struct {
		CFD          int        `json:"cfd"`
		ConstTuples  []int64    `json:"const_tuples"`
		VariableKeys [][]string `json:"variable_keys"`
	} `json:"per_cfd"`
	Total int `json:"total"`
}

// oracle checks the nodes against the shadow of every acknowledged op:
// repro.Detect (Direct) over the shadow must give each node's tuple
// count and per-CFD violation totals. For the routed topology the shadow
// is split by ring owner (a variable violation is a group of tuples on
// one shard; groups do not span shards), each shard primary must match
// its part, the router's totals must be their sum, and the follower must
// reach lag 0 with its primary's state. A mismatch is recorded, printed
// and makes the run incorrect. It returns the tuple count.
func (h *harness) oracle(w workload, top *topology, in *inputs, conns []*conn, rep *report, when string) (int, error) {
	bad, tuples, err := compareShadow(w, top, in, conns)
	for _, m := range bad {
		msg := fmt.Sprintf("oracle (%s): %s", when, m)
		fmt.Fprintln(os.Stderr, "bench: "+msg)
		rep.oracle = append(rep.oracle, msg)
	}
	return tuples, err
}

// compareShadow is the comparison behind oracle: it returns the
// mismatches and the shadow's tuple count.
func compareShadow(w workload, top *topology, in *inputs, conns []*conn) (bad []string, tuples int, err error) {
	keys := []int64{}
	rows := map[int64]repro.Tuple{}
	for _, c := range conns {
		for k, t := range c.gen.sh.rows {
			keys = append(keys, k)
			rows[k] = t
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	parts := map[string][]int64{top.shards[0].name: keys}
	if w.routed {
		var st struct {
			VNodes int `json:"vnodes"`
		}
		if err := getJSON(top.router.url()+"/v1/stats", &st); err != nil {
			return nil, 0, err
		}
		ring, err := repro.NewClusterRing(st.VNodes, "g0", "g1")
		if err != nil {
			return nil, 0, err
		}
		parts = map[string][]int64{}
		for _, k := range keys {
			name := ring.Owner(k) + "-primary"
			parts[name] = append(parts[name], k)
		}
	}

	mismatch := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf(format, args...))
	}
	sum := 0
	for _, node := range top.shards {
		rel := repro.NewRelation(in.data.Schema)
		for _, k := range parts[node.name] {
			rel.Tuples = append(rel.Tuples, rows[k])
		}
		want, err := repro.Detect(rel, in.sigma, directOpts)
		if err != nil {
			return nil, 0, fmt.Errorf("oracle: %w", err)
		}
		var st nodeStats
		if err := getJSON(node.url()+"/v1/stats", &st); err != nil {
			return nil, 0, err
		}
		var got violationsBody
		if err := getJSON(node.url()+"/v1/violations", &got); err != nil {
			return nil, 0, err
		}
		if st.Tuples != rel.Len() {
			mismatch("%s holds %d tuples, the shadow %d", node.name, st.Tuples, rel.Len())
		}
		gotPer := make([]int, len(in.sigma))
		for _, p := range got.PerCFD {
			if p.CFD < 0 || p.CFD >= len(gotPer) {
				mismatch("%s reports violations of CFD %d; Σ has %d", node.name, p.CFD, len(gotPer))
				continue
			}
			gotPer[p.CFD] = len(p.ConstTuples) + len(p.VariableKeys)
		}
		for i, v := range want.PerCFD {
			n := len(v.ConstTuples) + len(v.VariableKeys)
			sum += n
			if gotPer[i] != n {
				mismatch("%s has %d violations of CFD %d, Detect over the shadow finds %d", node.name, gotPer[i], i, n)
			}
		}
	}
	if w.routed {
		var routed struct {
			Total int `json:"total"`
		}
		if err := getJSON(top.router.url()+"/v1/violations", &routed); err != nil {
			return nil, 0, err
		}
		if routed.Total != sum {
			mismatch("the router totals %d violations, the shards' shadows %d", routed.Total, sum)
		}
		if err := awaitCaughtUp(top.follower, top.shards[0], 10*time.Second); err != nil {
			mismatch("%v", err)
		}
	}
	return bad, len(keys), nil
}
