package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"repro"
)

// inputs is everything a workload is fed, generated from the seed alone.
// The daemons receive the files; they never see the seed or the workload
// name.
type inputs struct {
	data  *repro.Relation // the dirty instance (NOISE 5 %)
	sigma []*repro.CFD    // Σ as the daemons parse it back from cfds.txt
	pool  []repro.Tuple   // tuples traffic inserts draw from

	csvPath, cfdPath, emptyCSV string
}

const noise = 0.05

// generate builds the tax instance and Σ for a workload: the six
// semantic CFDs plus one workload CFD (NUMATTRs 3, 100 % constants,
// TABSZ w.tabsz), written to dir as the files cfdserve loads. Σ is read
// back through the text notation so the in-process oracle sees exactly
// the set the daemon does (ParseCFDSet merges rows that share an embedded
// FD into one tableau).
func generate(w workload, seed int64, dir string) (*inputs, error) {
	tax := repro.GenerateTax(repro.TaxConfig{Size: w.tuples, Noise: noise, Seed: seed})
	tpl, err := repro.CFDTemplateByAttrs(3)
	if err != nil {
		return nil, err
	}
	wl, err := repro.GenerateWorkloadCFD(tax.Clean, repro.CFDConfig{Template: tpl, TabSize: w.tabsz, ConstPct: 1, Seed: seed + 1})
	if err != nil {
		return nil, err
	}
	text := repro.FormatCFDSet(append(repro.SemanticTaxCFDs(), wl))
	sigma, err := repro.ParseCFDSet(text)
	if err != nil {
		return nil, fmt.Errorf("re-parsing generated Σ: %w", err)
	}
	in := &inputs{
		data:     tax.Dirty,
		sigma:    sigma,
		pool:     repro.GenerateTax(repro.TaxConfig{Size: 2048, Noise: noise, Seed: seed + 2}).Dirty.Tuples,
		csvPath:  filepath.Join(dir, "data.csv"),
		cfdPath:  filepath.Join(dir, "cfds.txt"),
		emptyCSV: filepath.Join(dir, "empty.csv"),
	}
	var buf bytes.Buffer
	if err := repro.WriteCSV(&buf, in.data); err != nil {
		return nil, err
	}
	if err := os.WriteFile(in.csvPath, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(in.cfdPath, []byte(text), 0o644); err != nil {
		return nil, err
	}
	// A fresh shard needs -data; a header-only CSV gives it the schema.
	header, _, _ := bytes.Cut(buf.Bytes(), []byte("\n"))
	if err := os.WriteFile(in.emptyCSV, append(header, '\n'), 0o644); err != nil {
		return nil, err
	}
	return in, nil
}

// wireOp is one op of POST /v1/apply.
type wireOp struct {
	Op     string   `json:"op"`
	Values []string `json:"values,omitempty"`
	Key    *int64   `json:"key,omitempty"`
	Attr   string   `json:"attr,omitempty"`
	Value  string   `json:"value,omitempty"`
}

// shadow is the harness's copy of every acknowledged op: what the nodes
// must hold. Each connection owns the keys of its partition, so a shadow
// is touched by one goroutine only; the oracle merges them.
type shadow struct {
	rows map[int64]repro.Tuple
	live []int64       // for sampling
	pos  map[int64]int // key → index in live
}

func newShadow() *shadow {
	return &shadow{rows: map[int64]repro.Tuple{}, pos: map[int64]int{}}
}

func (s *shadow) insert(key int64, t repro.Tuple) {
	s.rows[key] = t
	s.pos[key] = len(s.live)
	s.live = append(s.live, key)
}

func (s *shadow) remove(key int64) {
	i := s.pos[key]
	last := s.live[len(s.live)-1]
	s.live[i] = last
	s.pos[last] = i
	s.live = s.live[:len(s.live)-1]
	delete(s.pos, key)
	delete(s.rows, key)
}

// apply folds an acknowledged ChangeSet into the shadow.
func (s *shadow) apply(ops []genOp) {
	for _, o := range ops {
		switch o.op {
		case "insert":
			s.insert(o.key, o.tuple)
		case "delete":
			s.remove(o.key)
		case "update":
			s.rows[o.key][o.col] = o.value
		}
	}
}

// inverse returns the ops that undo a ChangeSet not yet applied, last op
// first. No key is touched twice in a batch, so each op's inverse reads
// the shadow as it is now.
func (s *shadow) inverse(ops []genOp) []genOp {
	inv := make([]genOp, 0, len(ops))
	for i := len(ops) - 1; i >= 0; i-- {
		o := ops[i]
		switch o.op {
		case "insert":
			inv = append(inv, genOp{op: "delete", key: o.key})
		case "delete":
			inv = append(inv, genOp{op: "insert", key: o.key, tuple: s.rows[o.key]})
		case "update":
			inv = append(inv, genOp{op: "update", key: o.key, col: o.col, value: s.rows[o.key][o.col]})
		}
	}
	return inv
}

// genOp is a generated op with what the shadow needs to fold it.
type genOp struct {
	op    string
	key   int64
	col   int
	attr  string
	value string
	tuple repro.Tuple
}

// request is one generated request. The op stream of a connection is the
// sequence of its requests' (method, path, body).
type request struct {
	kind   kind
	method string
	path   string
	body   []byte
	ops    []genOp // kWrite: folded into the shadow on acknowledgement
	cond   bool    // send If-None-Match with the last ETag of this kind
}

// dirtied remembers a CFD-attribute cell a write corrupted, so a later
// write can heal it: violations appear and go away, and their number
// stays near its starting level for the whole run.
type dirtied struct {
	key int64
	col int
	old string
}

// opGen produces one connection's request stream. It is deterministic in
// (seed, connection): it draws only from its own rng, its own shadow and
// its own key range, and every request it emits is valid against the
// shadow, so as long as no request fails the stream does not depend on
// timing.
type opGen struct {
	w    workload
	rng  *rand.Rand
	zipf *rand.Zipf
	sh   *shadow
	pool []repro.Tuple
	next int // pool cursor

	nextKey, keyStep int64
	dirty            []dirtied
	cfdCols, anyCols []int
	attrs            []string
	cum              [numKinds]int
	used             map[int64]bool // keys already touched by the batch being built
}

// newOpGen builds the generator of connection conn of nconn. The
// connection owns the initial keys ≡ conn (mod nconn) and allocates new
// keys from firstFree+conn in steps of nconn.
func newOpGen(w workload, seed int64, conn, nconn int, in *inputs, firstFree int64) *opGen {
	g := &opGen{
		w:       w,
		rng:     rand.New(rand.NewSource(seed*1000003 + int64(conn)*7919 + 17)),
		sh:      newShadow(),
		pool:    in.pool,
		next:    conn,
		nextKey: firstFree + int64(conn),
		keyStep: int64(nconn),
		attrs:   in.data.Schema.Names(),
		used:    map[int64]bool{},
	}
	for _, a := range []string{"CT", "ST", "ZIP"} {
		g.cfdCols = append(g.cfdCols, in.data.Schema.MustIndex(a))
	}
	for _, a := range []string{"NM", "STR"} {
		g.anyCols = append(g.anyCols, in.data.Schema.MustIndex(a))
	}
	sum := 0
	for k := range w.mix {
		sum += w.mix[k]
		g.cum[k] = sum
	}
	return g
}

// seedShadow gives the generator its share of the loaded instance.
// Called once the keys of the initial tuples are known.
func (g *opGen) seedShadow(keys []int64, tuples []repro.Tuple, conn, nconn int) {
	for i, k := range keys {
		if int(k)%nconn == conn {
			g.sh.insert(k, tuples[i].Clone())
		}
	}
	if g.w.zipf {
		g.zipf = rand.NewZipf(g.rng, 1.1, 1, uint64(len(g.sh.live)-1))
	}
}

// pick draws a live key of this connection: Zipf(1.1) over the live list
// or uniform.
func (g *opGen) pick() int64 {
	n := len(g.sh.live)
	if g.zipf != nil {
		return g.sh.live[int(g.zipf.Uint64())%n]
	}
	return g.sh.live[g.rng.Intn(n)]
}

// pickFresh draws a live key the current batch has not touched yet.
func (g *opGen) pickFresh() int64 {
	for {
		k := g.pick()
		if !g.used[k] {
			g.used[k] = true
			return k
		}
		if g.zipf != nil { // the hot head may be exhausted: fall back to uniform
			k = g.sh.live[g.rng.Intn(len(g.sh.live))]
			if !g.used[k] {
				g.used[k] = true
				return k
			}
		}
	}
}

// nextRequest draws the next request of the mix.
func (g *opGen) nextRequest() *request {
	r := g.rng.Intn(100)
	k := kWrite
	for k < numKinds-1 && r >= g.cum[k] {
		k++
	}
	return g.requestOf(k)
}

func (g *opGen) requestOf(k kind) *request {
	any := ""
	if g.w.routed {
		any = "&consistency=any"
	}
	switch k {
	case kWrite:
		ops, body := g.changeSet()
		return &request{kind: kWrite, method: "POST", path: "/v1/apply", body: body, ops: ops}
	case kPoint:
		return &request{kind: kPoint, method: "GET", path: "/v1/violations?key=" + strconv.FormatInt(g.pick(), 10) + any}
	case kPage:
		if g.w.routed { // the router sums per-group totals; it does not paginate
			return &request{kind: kPage, method: "GET", path: "/v1/violations?consistency=any"}
		}
		return &request{kind: kPage, method: "GET", path: "/v1/violations?limit=200", cond: true}
	case kRepairs:
		if g.w.routed {
			return &request{kind: kRepairs, method: "GET", path: "/v1/repairs?limit=50&consistency=any"}
		}
		return &request{kind: kRepairs, method: "GET", path: "/v1/repairs?limit=100&trust_threshold=0.9", cond: true}
	case kStats:
		return &request{kind: kStats, method: "GET", path: "/v1/stats"}
	default:
		return &request{kind: kDiscover, method: "GET", path: discoverPath}
	}
}

// discoverPath names the miner configuration cfdserve's suggester wires
// as its trust source (max_lhs 1, min_support 2, min_confidence 1). Any
// other configuration would make /v1/discover and /v1/repairs evict each
// other's miner and pay a full attach on every call.
const discoverPath = "/v1/discover?max_lhs=1&min_support=2&min_confidence=1"

// changeSet builds one 32-op ChangeSet: 70 % updates (half on the CFD
// attributes CT/ST/ZIP — alternately corrupting a cell with another
// tuple's value and healing an earlier corruption — half on NM/STR),
// 15 % inserts, 15 % deletes. No key is touched twice in a batch.
func (g *opGen) changeSet() ([]genOp, []byte) {
	clear(g.used)
	ops := make([]genOp, 0, opsPerChangeSet)
	wire := make([]wireOp, 0, opsPerChangeSet)
	for len(ops) < opsPerChangeSet {
		r := g.rng.Intn(100)
		switch {
		case r < 15:
			t := g.pool[g.next%len(g.pool)].Clone()
			g.next += int(g.keyStep)
			key := g.nextKey
			g.nextKey += g.keyStep
			g.used[key] = true
			ops = append(ops, genOp{op: "insert", key: key, tuple: t})
			wire = append(wire, wireOp{Op: "insert", Key: &ops[len(ops)-1].key, Values: t})
		case r < 30:
			if len(g.sh.live) <= opsPerChangeSet*4 {
				continue // keep a floor under the partition
			}
			key := g.pickFresh()
			ops = append(ops, genOp{op: "delete", key: key})
			wire = append(wire, wireOp{Op: "delete", Key: &ops[len(ops)-1].key})
		default:
			o, ok := g.update(r < 65)
			if !ok {
				continue
			}
			ops = append(ops, o)
			wire = append(wire, wireOp{Op: "update", Key: &ops[len(ops)-1].key, Attr: o.attr, Value: o.value})
		}
	}
	// Keys point into ops, which is at capacity and never reallocates.
	body, err := json.Marshal(struct {
		Ops []wireOp `json:"ops"`
	}{wire})
	if err != nil {
		panic(err) // plain strings and ints cannot fail to marshal
	}
	return ops, body
}

func (g *opGen) update(onCFD bool) (genOp, bool) {
	if !onCFD {
		key := g.pickFresh()
		col := g.anyCols[g.rng.Intn(len(g.anyCols))]
		donor := g.sh.rows[g.sh.live[g.rng.Intn(len(g.sh.live))]]
		return genOp{op: "update", key: key, col: col, attr: g.attrs[col], value: donor[col]}, true
	}
	// Heal or corrupt on a coin flip: the backlog of corrupted cells, and
	// with it the violation count, hovers instead of growing.
	if len(g.dirty) > 0 && g.rng.Intn(2) == 0 {
		i := g.rng.Intn(len(g.dirty))
		d := g.dirty[i]
		g.dirty[i] = g.dirty[len(g.dirty)-1]
		g.dirty = g.dirty[:len(g.dirty)-1]
		if _, live := g.sh.rows[d.key]; !live || g.used[d.key] {
			return genOp{}, false
		}
		g.used[d.key] = true
		return genOp{op: "update", key: d.key, col: d.col, attr: g.attrs[d.col], value: d.old}, true
	}
	key := g.pickFresh()
	col := g.cfdCols[g.rng.Intn(len(g.cfdCols))]
	donor := g.sh.rows[g.sh.live[g.rng.Intn(len(g.sh.live))]]
	g.dirty = append(g.dirty, dirtied{key: key, col: col, old: g.sh.rows[key][col]})
	return genOp{op: "update", key: key, col: col, attr: g.attrs[col], value: donor[col]}, true
}
