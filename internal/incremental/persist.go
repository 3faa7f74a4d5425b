package incremental

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"unsafe"

	"repro/internal/core"
	"repro/internal/relation"
)

// This file is the snapshot codec: a versioned, CRC-trailed binary image
// of the Monitor's full state — tuples, per-CFD group indexes, constant
// violation sets and violation counters — so a restart materializes the
// live state with plain map fills instead of re-running CFD evaluation
// over every tuple (BenchmarkRecover100K against
// BenchmarkCSVColdStart100K).
//
// The image embeds the schema and Σ it was taken under; loading verifies
// both against the caller's, so a WAL directory can never be silently
// reinterpreted under different constraints.
//
// Version 2 speaks value IDs. Process-local IDs (relation.Interner.ID)
// are never meaningful across restarts, so the image carries its own
// value table — the interner's ID→value list at snapshot time — and
// every tuple, group and Y-projection is a uvarint ID vector into it.
// Loading re-interns the table into the fresh monitor's pool and remaps
// every stored ID through the resulting translation, so the restored
// state is correct even though the new process assigns different IDs.
// Group map keys are not stored at all: they are re-derived by packing
// the remapped ID vectors (relation.AppendIDKey), exactly as the live
// apply builds them.

// snapMagic identifies a Monitor snapshot. Version 3 adds the fencing
// epoch right after nextKey; version 2 images (same length, read-only
// compatibility) load as epoch 0 — exactly the epoch of everything
// written before fencing existed.
const (
	snapMagic   = "CFDSNAP\x03"
	snapMagicV2 = "CFDSNAP\x02"
)

// snapTable is the snapshot checksum polynomial. Castagnoli has hardware
// support (SSE4.2 / ARMv8 CRC instructions), which matters at tens of
// megabytes per image; the WAL keeps IEEE for its small per-record frames.
var snapTable = crc32.MakeTable(crc32.Castagnoli)

// --- encoder ---

type enc struct {
	w       io.Writer
	scratch []byte
	err     error
}

func (e *enc) bytes(p []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(p)
	}
}

func (e *enc) uvarint(v uint64) {
	e.scratch = binary.AppendUvarint(e.scratch[:0], v)
	e.bytes(e.scratch)
}

func (e *enc) byte(b byte) {
	e.scratch = append(e.scratch[:0], b)
	e.bytes(e.scratch)
}

// str frames the string through the reusable scratch buffer: one Write,
// no per-string allocation (snapshots write millions of values).
func (e *enc) str(s string) {
	e.scratch = binary.AppendUvarint(e.scratch[:0], uint64(len(s)))
	e.scratch = append(e.scratch, s...)
	e.bytes(e.scratch)
}

func (e *enc) strs(vals []relation.Value) {
	for _, v := range vals {
		e.str(v)
	}
}

// ids writes an ID vector as bare uvarints (the arity is known to the
// reader from the schema or CFD shape, so no length prefix).
func (e *enc) ids(ids []uint32) {
	for _, id := range ids {
		e.uvarint(uint64(id))
	}
}

// --- decoder ---

// dec reads from a fully-materialized image. Strings are substrings of
// one backing allocation, so decoding 100K tuples costs one copy total
// instead of one per value.
type dec struct {
	s   string
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("incremental: snapshot: "+format, args...)
	}
}

// uvarint parses in place (no []byte conversion: this runs millions of
// times on the recovery path and must not allocate).
func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	var x uint64
	var shift uint
	for i := 0; ; i++ {
		if d.off >= len(d.s) {
			d.fail("truncated varint at offset %d", d.off)
			return 0
		}
		b := d.s[d.off]
		d.off++
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 || i >= binary.MaxVarintLen64 {
				d.fail("varint overflow at offset %d", d.off)
				return 0
			}
			return x | uint64(b)<<shift
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
	}
}

func (d *dec) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.s) {
		d.fail("unexpected end at offset %d", d.off)
		return 0
	}
	b := d.s[d.off]
	d.off++
	return b
}

func (d *dec) str() string {
	n := int(d.uvarint())
	if d.err != nil {
		return ""
	}
	if n < 0 || d.off+n > len(d.s) {
		d.fail("string of %d bytes overruns image at offset %d", n, d.off)
		return ""
	}
	s := d.s[d.off : d.off+n]
	d.off += n
	return s
}

func (d *dec) strs(n int) []relation.Value {
	out := make([]relation.Value, n)
	for i := range out {
		out[i] = d.str()
	}
	return out
}

// id reads one stored ID and translates it through remap (the image's
// value table re-interned into the live pool). Out-of-table IDs mark
// the image corrupt.
func (d *dec) id(remap []uint32) uint32 {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v >= uint64(len(remap)) {
		d.fail("value ID %d outside table of %d at offset %d", v, len(remap), d.off)
		return 0
	}
	return remap[v]
}

// --- schema / sigma sections ---

func encodeSchema(e *enc, s *relation.Schema) {
	e.str(s.Name)
	e.uvarint(uint64(s.Len()))
	for _, a := range s.Attrs {
		e.str(a.Name)
		if a.Domain == nil {
			e.byte(0)
			continue
		}
		e.byte(1)
		e.str(a.Domain.Name)
		e.uvarint(uint64(len(a.Domain.Values)))
		e.strs(a.Domain.Values)
	}
}

// checkSchema decodes the schema section and verifies it matches want.
func checkSchema(d *dec, want *relation.Schema) {
	if name := d.str(); d.err == nil && name != want.Name {
		d.fail("schema name %q, monitor has %q", name, want.Name)
	}
	n := int(d.uvarint())
	if d.err == nil && n != want.Len() {
		d.fail("schema has %d attributes, monitor has %d", n, want.Len())
	}
	for i := 0; i < n && d.err == nil; i++ {
		name := d.str()
		if d.err == nil && name != want.Attrs[i].Name {
			d.fail("attribute %d is %q, monitor has %q", i, name, want.Attrs[i].Name)
		}
		hasDomain := d.byte() == 1
		var wantDom *relation.Domain
		if i < want.Len() {
			wantDom = want.Attrs[i].Domain
		}
		if !hasDomain {
			if d.err == nil && wantDom != nil {
				d.fail("attribute %q lost its domain", name)
			}
			continue
		}
		domName := d.str()
		vals := d.strs(int(d.uvarint()))
		if d.err != nil {
			return
		}
		if wantDom == nil {
			d.fail("attribute %q gained domain %q", name, domName)
			return
		}
		if domName != wantDom.Name || len(vals) != len(wantDom.Values) {
			d.fail("attribute %q domain changed", name)
			return
		}
		for j := range vals {
			if vals[j] != wantDom.Values[j] {
				d.fail("attribute %q domain values changed", name)
				return
			}
		}
	}
}

func encodeSigma(e *enc, sigma []*core.CFD) {
	e.uvarint(uint64(len(sigma)))
	for _, c := range sigma {
		e.uvarint(uint64(len(c.LHS)))
		for _, a := range c.LHS {
			e.str(a)
		}
		e.uvarint(uint64(len(c.RHS)))
		for _, a := range c.RHS {
			e.str(a)
		}
		e.uvarint(uint64(len(c.Tableau)))
		for _, row := range c.Tableau {
			encodeCells(e, row.X)
			encodeCells(e, row.Y)
		}
	}
}

func encodeCells(e *enc, cells []core.Pattern) {
	for _, p := range cells {
		if p.Kind == core.Const {
			e.byte(1)
			e.str(p.Val)
		} else {
			e.byte(0)
		}
	}
}

// checkSigma decodes the Σ section and verifies it matches want
// structurally — same CFDs, same order, same tableaux.
func checkSigma(d *dec, want []*core.CFD) {
	n := int(d.uvarint())
	if d.err == nil && n != len(want) {
		d.fail("snapshot has %d CFDs, monitor has %d", n, len(want))
	}
	for i := 0; i < n && d.err == nil; i++ {
		c := want[i]
		if !checkAttrList(d, c.LHS) || !checkAttrList(d, c.RHS) {
			d.fail("CFD %d attribute lists changed", i)
			return
		}
		rows := int(d.uvarint())
		if d.err == nil && rows != len(c.Tableau) {
			d.fail("CFD %d has %d tableau rows, monitor has %d", i, rows, len(c.Tableau))
		}
		for r := 0; r < rows && d.err == nil; r++ {
			if !checkCells(d, c.Tableau[r].X) || !checkCells(d, c.Tableau[r].Y) {
				d.fail("CFD %d tableau row %d changed", i, r)
				return
			}
		}
	}
}

func checkAttrList(d *dec, want []string) bool {
	n := int(d.uvarint())
	if d.err != nil || n != len(want) {
		return false
	}
	for _, a := range want {
		if d.str() != a || d.err != nil {
			return false
		}
	}
	return true
}

func checkCells(d *dec, want []core.Pattern) bool {
	for _, p := range want {
		isConst := d.byte() == 1
		if d.err != nil {
			return false
		}
		if isConst != (p.Kind == core.Const) {
			return false
		}
		if isConst && (d.str() != p.Val || d.err != nil) {
			return false
		}
	}
	return true
}

// --- the snapshot itself ---

// writeSnapshot serializes the full Monitor state. The caller holds the
// writer lock (or owns a monitor nobody else holds yet), so no mutation
// is in flight and the stores are read without the store lock; unexported
// because a caller without that quiescing would serialize a torn image.
func (m *Monitor) writeSnapshot(w io.Writer) error {
	if _, err := io.WriteString(w, snapMagic); err != nil {
		return err
	}
	h := crc32.New(snapTable)
	e := &enc{w: io.MultiWriter(w, h)}

	e.uvarint(uint64(m.nextKey.Load()))
	e.uvarint(m.epoch.Load())
	encodeSchema(e, m.schema)
	encodeSigma(e, m.sigma)

	// Value table: the interner's ID→value list. Mutations are quiesced,
	// so every ID stored in this monitor's state predates this copy and
	// indexes into it — even when the pool is shared and other monitors
	// keep interning concurrently (the table can only be longer).
	vals := m.vals.Values()
	e.uvarint(uint64(len(vals)))
	e.strs(vals)

	// Tuple store, keyed; tuples are ID vectors of schema arity.
	e.uvarint(uint64(len(m.tuples)))
	for k, t := range m.tuples {
		e.uvarint(uint64(k))
		e.ids(t)
	}

	// Per-CFD live state: violation counter, constant violations, groups
	// and the flat Y-projection multiset. Everything is written as flat
	// entry lists so recovery is pure presized-map fills.
	for _, cs := range m.cfds {
		e.uvarint(uint64(cs.violations.Load()))
		e.uvarint(uint64(len(cs.consts)))
		for k := range cs.consts {
			e.uvarint(uint64(k))
		}
		// Groups are written in a stable order and the yCounts entries
		// reference them by that ordinal, so restoring never re-hashes a
		// group key. Only the ID vector is stored — the packed map key is
		// re-derived from it on load.
		e.uvarint(uint64(len(cs.groups)))
		groupIdx := make(map[*group]uint64, len(cs.groups))
		for _, g := range cs.groups {
			groupIdx[g] = uint64(len(groupIdx))
			e.ids(g.xids) // len(LHS) IDs
			if g.selected {
				e.byte(1)
			} else {
				e.byte(0)
			}
			e.uvarint(uint64(g.size))
			e.uvarint(uint64(g.distinct))
		}
		e.uvarint(uint64(len(cs.yCounts)))
		var ykIDs []uint32
		for kk, c := range cs.yCounts {
			e.uvarint(groupIdx[kk.g])
			ykIDs = relation.DecodeIDKey(ykIDs[:0], kk.yk)
			e.ids(ykIDs) // len(RHS) IDs
			e.uvarint(uint64(c))
		}
	}
	if e.err != nil {
		return e.err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], h.Sum32())
	_, err := w.Write(sum[:])
	return err
}

// readSnapshot restores a Monitor's state from an image produced by
// writeSnapshot. The monitor must be freshly built (empty) from the same
// schema and Σ, and not yet shared — its stores are replaced without the
// store lock; schema and Σ are verified against the image. sizeHint, when
// positive, is the total image size (e.g. the snapshot file size) so the
// image is read in one exact-size allocation instead of ReadAll's
// doubling copies.
func (m *Monitor) readSnapshot(r io.Reader, sizeHint int64) error {
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return fmt.Errorf("incremental: snapshot: reading magic: %w", err)
	}
	v2 := string(magic) == snapMagicV2
	if string(magic) != snapMagic && !v2 {
		return fmt.Errorf("incremental: snapshot: bad magic %q", magic)
	}
	var raw []byte
	var err error
	if rest := sizeHint - int64(len(snapMagic)); rest > 0 {
		raw = make([]byte, rest)
		if _, err = io.ReadFull(r, raw); err != nil {
			return fmt.Errorf("incremental: snapshot: %w", err)
		}
	} else if raw, err = io.ReadAll(r); err != nil {
		return fmt.Errorf("incremental: snapshot: %w", err)
	}
	if len(raw) < 4 {
		return fmt.Errorf("incremental: snapshot: image too short")
	}
	body, sum := raw[:len(raw)-4], binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.Checksum(body, snapTable) != sum {
		return fmt.Errorf("incremental: snapshot: CRC mismatch")
	}
	// Zero-copy view: every decoded string below is a substring of the
	// image, so tuple values alias one backing array instead of being
	// re-allocated (or re-copied) one by one. The bytes are never written
	// again after this point, which is what makes the unsafe view sound.
	d := &dec{s: unsafe.String(unsafe.SliceData(body), len(body))}

	nextKey := int64(d.uvarint())
	var epoch uint64
	if !v2 {
		epoch = d.uvarint()
	}
	checkSchema(d, m.schema)
	checkSigma(d, m.sigma)
	if d.err != nil {
		return d.err
	}

	// Value table: re-intern every image value into the live pool and
	// keep the old-ID → new-ID translation. The interner clones what it
	// keeps, so nothing below aliases the image once remapped.
	nvals := int(d.uvarint())
	if d.err != nil {
		return d.err
	}
	remap := make([]uint32, nvals)
	for i := range remap {
		remap[i] = m.vals.ID(d.str())
		if d.err != nil {
			return d.err
		}
	}

	ntuples := int(d.uvarint())
	m.tuples = make(map[int64]idTuple, ntuples)
	nattrs := m.schema.Len()
	// Arena: one backing array for every tuple's IDs, sliced per tuple —
	// the map stores slice headers, so the whole tuple store costs one
	// allocation instead of one per row.
	tupleArena := make([]uint32, ntuples*nattrs)
	for i := 0; i < ntuples; i++ {
		k := int64(d.uvarint())
		t := idTuple(tupleArena[i*nattrs : (i+1)*nattrs : (i+1)*nattrs])
		for j := range t {
			t[j] = d.id(remap)
		}
		if d.err != nil {
			return d.err
		}
		m.tuples[k] = t
	}

	for _, cs := range m.cfds {
		nlhs := len(cs.cfd.LHS)
		cs.violations.Store(int64(d.uvarint()))
		nconsts := int(d.uvarint())
		cs.consts = make(map[int64]bool, nconsts)
		for i := 0; i < nconsts; i++ {
			k := int64(d.uvarint())
			if d.err != nil {
				return d.err
			}
			cs.consts[k] = true
		}
		ngroups := int(d.uvarint())
		cs.groups = make(map[string]*group, ngroups)
		// Arenas again: group structs and their xids slices in two backing
		// arrays, pointers into them in the map. Map keys are packed from
		// the remapped ID vectors — exactly what the live add() path
		// builds.
		groupArena := make([]group, ngroups)
		xArena := make([]uint32, ngroups*nlhs)
		var keyBuf []byte
		for i := 0; i < ngroups; i++ {
			g := &groupArena[i]
			g.xids = xArena[i*nlhs : (i+1)*nlhs : (i+1)*nlhs]
			for j := range g.xids {
				g.xids[j] = d.id(remap)
			}
			g.selected = d.byte() == 1
			g.size = int(d.uvarint())
			g.distinct = int(d.uvarint())
			if d.err != nil {
				return d.err
			}
			keyBuf = relation.AppendIDKey(keyBuf[:0], g.xids)
			cs.groups[string(keyBuf)] = g
			if g.violating() {
				cs.vgroups[g] = m.xValues(g)
			}
		}
		nyks := int(d.uvarint())
		cs.yCounts = make(map[ykKey]int, nyks)
		nrhs := len(cs.cfd.RHS)
		ykIDs := make([]uint32, nrhs)
		for i := 0; i < nyks; i++ {
			gi := int(d.uvarint())
			for j := range ykIDs {
				ykIDs[j] = d.id(remap)
			}
			c := int(d.uvarint())
			if d.err != nil {
				return d.err
			}
			if gi >= ngroups {
				d.fail("yCounts entry %d references group %d of %d", i, gi, ngroups)
				return d.err
			}
			keyBuf = relation.AppendIDKey(keyBuf[:0], ykIDs)
			cs.yCounts[ykKey{g: &groupArena[gi], yk: m.keys.InternBytes(keyBuf)}] = c
		}
	}
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.s) {
		return fmt.Errorf("incremental: snapshot: %d trailing bytes", len(d.s)-d.off)
	}
	m.nextKey.Store(nextKey)
	m.epoch.Store(epoch)
	m.size.Store(int64(ntuples))
	// The stores were filled directly, without deltas: the view's next
	// build re-reads every CFD (WAL-tail replay then marks on top).
	m.view.invalidate()
	return nil
}
