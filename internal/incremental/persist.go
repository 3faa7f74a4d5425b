package incremental

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"slices"
	"unsafe"

	"repro/internal/core"
	"repro/internal/relation"
)

// This file is the snapshot codec: a versioned, CRC-trailed binary image
// of the Monitor's full state — tuples, and per CFD its violation
// counter, constant violations and groups with their RHS value
// distributions — so a restart materializes the live state with plain
// map fills instead of re-running CFD evaluation over every tuple
// (BenchmarkRecover100K against BenchmarkCSVColdStart100K).
//
// The image embeds the schema and Σ it was taken under; loading verifies
// both against the caller's, so a WAL directory can never be silently
// reinterpreted under different constraints.
//
// The image speaks value IDs. Process-local IDs (relation.Interner.ID)
// are never meaningful across restarts, so the image carries its own
// value table — the interner's ID→value list at snapshot time — and
// every tuple, group X-projection and distribution entry is a uvarint ID
// into it. Loading re-interns the table into the fresh monitor's pool
// and remaps every stored ID through the resulting translation, so the
// restored state is correct even though the new process assigns
// different IDs. Group map keys are not stored at all: they are
// re-derived by packing the remapped ID vectors (relation.AppendIDKey),
// exactly as the live apply builds them.
//
// Layout (version 4): magic, then under the CRC: nextKey, epoch, schema,
// Σ, value table, tuples; then per CFD its violation counter, constant
// violations and groups, each group as its X IDs, selected flag, size
// and, per RHS attribute, the distinct count followed by that many
// (value ID, count) pairs. Versions 2 (no epoch) and 3 (a per-CFD
// multiset of Y-projections instead of the distributions) share the
// prefix up to the tuples: such an image is read that far, its CRC
// checked, and its tuples folded by the bulk build (bulk.go), so an
// older directory boots — once, at the cost of a fresh index build —
// and its next snapshot is version 4.

// snapMagic identifies a Monitor snapshot; its last byte is the version.
const snapMagic = "CFDSNAP\x04"

// snapVersion returns the format version named by an image's magic, or
// 0 when the bytes are not a snapshot this build reads (versions 2–4).
func snapVersion(magic []byte) byte {
	n := len(snapMagic) - 1
	if len(magic) == len(snapMagic) && string(magic[:n]) == snapMagic[:n] && magic[n] >= 2 && magic[n] <= snapMagic[n] {
		return magic[n]
	}
	return 0
}

// snapTable is the snapshot checksum polynomial. Castagnoli has hardware
// support (SSE4.2 / ARMv8 CRC instructions), which matters at tens of
// megabytes per image; the WAL keeps IEEE for its small per-record frames.
var snapTable = crc32.MakeTable(crc32.Castagnoli)

// --- encoder ---

// snapBlock is the encoder's block size: the image is appended into one
// reused buffer and flushed once it holds a block, with one Write and one
// CRC update per block rather than per value.
const snapBlock = 64 << 10

type enc struct {
	w   io.Writer
	buf []byte
	crc uint32 // over every flushed byte
	err error
}

// flush writes out the buffered bytes once they fill a block, or all of
// them when final. After a failed Write the rest is dropped, so the
// buffer stays one block.
func (e *enc) flush(final bool) {
	if len(e.buf) == 0 || len(e.buf) < snapBlock && !final {
		return
	}
	if e.err == nil {
		e.crc = crc32.Update(e.crc, snapTable, e.buf)
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

func (e *enc) uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
	e.flush(false)
}

func (e *enc) byte(b byte) {
	e.buf = append(e.buf, b)
	e.flush(false)
}

// str frames the string into the block: no per-string allocation or
// Write (snapshots write millions of values).
func (e *enc) str(s string) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
	e.buf = append(e.buf, s...)
	e.flush(false)
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
		e.buf = binary.AppendUvarint(e.buf, uint64(id))
	}
	e.flush(false)
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

// count reads an entry count, bounded by the bytes left: every entry
// takes at least one byte, so a corrupt count reads as corruption, never
// as an allocation request.
func (d *dec) count() int {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.s)-d.off) {
		d.fail("count %d overruns image at offset %d", n, d.off)
		return 0
	}
	return int(n)
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

// decodeSchema reads the schema section written by encodeSchema.
func decodeSchema(d *dec) (*relation.Schema, error) {
	name := d.str()
	attrs := make([]relation.Attribute, d.count())
	for i := range attrs {
		attrs[i].Name = d.str()
		if d.byte() == 1 {
			attrs[i].Domain = &relation.Domain{Name: d.str(), Values: d.strs(d.count())}
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return relation.NewSchema(name, attrs...)
}

// checkSchema decodes the schema section and verifies it matches want:
// the same name, attributes and domains, in order.
func checkSchema(d *dec, want *relation.Schema) {
	got, err := decodeSchema(d)
	if err != nil {
		d.fail("%v", err)
		return
	}
	same := got.Name == want.Name && len(got.Attrs) == len(want.Attrs)
	for i := 0; same && i < len(got.Attrs); i++ {
		g, w := got.Attrs[i], want.Attrs[i]
		same = g.Name == w.Name && (g.Domain == nil) == (w.Domain == nil) &&
			(g.Domain == nil || g.Domain.Name == w.Domain.Name && slices.Equal(g.Domain.Values, w.Domain.Values))
	}
	if !same {
		d.fail("schema %s%v does not match the monitor's %s%v", got.Name, got.Names(), want.Name, want.Names())
	}
}

// headerSchema decodes the schema from the head of an image — magic,
// nextKey, epoch, schema — without reading the rest or checking the CRC.
func headerSchema(img []byte) (*relation.Schema, error) {
	if len(img) < len(snapMagic) || snapVersion(img[:len(snapMagic)]) == 0 {
		return nil, errors.New("incremental: not a monitor snapshot")
	}
	d := &dec{s: string(img[len(snapMagic):])}
	d.uvarint() // nextKey
	if img[len(snapMagic)-1] >= 3 {
		d.uvarint() // epoch
	}
	return decodeSchema(d)
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
	e := &enc{w: w, buf: make([]byte, 0, snapBlock+4<<10)}

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

	// Per-CFD live state: violation counter, constant violations and
	// groups, each group with its distributions inline, so recovery is
	// pure presized-map fills. Only a group's X IDs are stored — the
	// packed map key is re-derived from them on load.
	var xids []uint32
	for _, cs := range m.cfds {
		e.uvarint(uint64(cs.violations.Load()))
		e.uvarint(uint64(len(cs.consts)))
		for k := range cs.consts {
			e.uvarint(uint64(k))
		}
		e.uvarint(uint64(len(cs.groups)))
		for _, g := range cs.groups {
			xids = relation.DecodeIDKey(xids[:0], g.key)
			e.ids(xids) // len(LHS) IDs
			if g.selected {
				e.byte(1)
			} else {
				e.byte(0)
			}
			e.uvarint(uint64(g.size))
			for i := range g.ys { // len(RHS) distributions
				encodeDist(e, &g.ys[i])
			}
		}
	}
	e.flush(true)
	if e.err != nil {
		return e.err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], e.crc)
	_, err := w.Write(sum[:])
	return err
}

// encodeDist writes a distribution as its distinct count followed by one
// (value ID, count) pair per distinct value.
func encodeDist(e *enc, dd *dist) {
	e.uvarint(uint64(dd.distinct()))
	if dd.c0 > 0 {
		e.uvarint(uint64(dd.v0))
		e.uvarint(uint64(dd.c0))
	}
	if dd.rest != nil {
		for _, vc := range dd.rest.slots {
			if vc.n > 0 {
				e.uvarint(uint64(vc.id))
				e.uvarint(uint64(vc.n))
			}
		}
	}
}

// decodeDist reads a distribution written by encodeDist into dd, whose
// group has size members: the counts must be positive, name distinct
// values and sum to size.
func decodeDist(d *dec, dd *dist, size int, remap []uint32) {
	n := d.count()
	if d.err == nil && (n < 1 || n > size) {
		d.fail("distinct count %d outside group size %d at offset %d", n, size, d.off)
	}
	sum := 0
	for i := 0; i < n && d.err == nil; i++ {
		v := d.id(remap)
		c := d.uvarint()
		if d.err == nil && (c < 1 || c > uint64(size-sum)) {
			d.fail("value count %d overruns group size %d at offset %d", c, size, d.off)
		}
		if d.err != nil {
			return
		}
		sum += int(c)
		dd.add(v, int32(c))
	}
	if d.err == nil && (sum != size || dd.distinct() != n) {
		d.fail("distribution holds %d distinct values over %d members, want %d over %d at offset %d", dd.distinct(), sum, n, size, d.off)
	}
}

// readSnapshot restores a Monitor's state from an image produced by
// writeSnapshot — or by an older build: a version 2 or 3 image is read
// up to its tuples and the index is rebuilt from them. The monitor must
// be freshly built (empty) from the same schema and Σ, and not yet
// shared — its stores are replaced without the store lock; schema and Σ
// are verified against the image. sizeHint, when positive, is the total
// image size (e.g. the snapshot file size) so the image is read in one
// exact-size allocation instead of ReadAll's doubling copies.
func (m *Monitor) readSnapshot(r io.Reader, sizeHint int64) error {
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return fmt.Errorf("incremental: snapshot: reading magic: %w", err)
	}
	version := snapVersion(magic)
	if version == 0 {
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
	if version >= 3 {
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
	nvals := d.count()
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

	ntuples := d.count()
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

	if version < 4 {
		// The index sections of an older image are not read (the CRC
		// above covered them): the tuples go through the bulk build
		// instead, which rebuilds the same groups, distributions and
		// violations. The next snapshot writes version 4.
		keys := slices.Sorted(maps.Keys(m.tuples))
		rows := make([]idTuple, len(keys))
		for i, k := range keys {
			rows[i] = m.tuples[k]
		}
		m.bulkFold(keys, rows)
	} else if err := m.readGroups(d, ntuples, remap); err != nil {
		return err
	}
	m.nextKey.Store(nextKey)
	m.epoch.Store(epoch)
	m.size.Store(int64(ntuples))
	// The stores were filled directly, without deltas: the view's next
	// build re-reads every CFD (WAL-tail replay then marks on top).
	for _, cs := range m.cfds {
		cs.moved = true
	}
	m.view.version.Add(1)
	return nil
}

// readGroups decodes a version 4 image's per-CFD sections, which follow
// the tuples, into the stores and checks them for consistency: every
// group is nonempty, the groups of one CFD hold ntuples members between
// them, and a CFD's violation counter matches its stores.
func (m *Monitor) readGroups(d *dec, ntuples int, remap []uint32) error {
	for ci, cs := range m.cfds {
		nlhs, nrhs := len(cs.xIdx), len(cs.yIdx)
		violations := int64(d.uvarint())
		nconsts := d.count()
		cs.consts = make(map[int64]bool, nconsts)
		for i := 0; i < nconsts && d.err == nil; i++ {
			cs.consts[int64(d.uvarint())] = true
		}
		ngroups := d.count()
		if d.err != nil {
			return d.err
		}
		cs.groups = make(map[string]*group, ngroups)
		// Arenas: group structs and their distributions in two backing
		// arrays, pointers into them in the map. Map keys are packed from
		// the remapped ID vectors — exactly what the live add() path
		// builds.
		groupArena := make([]group, ngroups)
		distArena := make([]dist, ngroups*nrhs)
		xids := make([]uint32, nlhs)
		var keyBuf []byte
		members := 0
		for i := 0; i < ngroups; i++ {
			g := &groupArena[i]
			for j := range xids {
				xids[j] = d.id(remap)
			}
			g.selected = d.byte() == 1
			g.size = int(d.uvarint())
			if d.err == nil && (g.size < 1 || g.size > ntuples-members) {
				d.fail("CFD %d group %d of size %d overruns %d tuples", ci, i, g.size, ntuples)
			}
			if d.err != nil {
				return d.err
			}
			members += g.size
			g.ys = distArena[i*nrhs : (i+1)*nrhs : (i+1)*nrhs]
			for j := range g.ys {
				decodeDist(d, &g.ys[j], g.size, remap)
			}
			if d.err != nil {
				return d.err
			}
			keyBuf = relation.AppendIDKey(keyBuf[:0], xids)
			g.key = string(keyBuf)
			cs.groups[g.key] = g
			if g.violating() {
				cs.vgroups[g] = keyValues(m.vals, g.key)
			}
		}
		if members != ntuples || len(cs.groups) != ngroups {
			return fmt.Errorf("incremental: snapshot: CFD %d groups hold %d members in %d distinct groups, want %d tuples in %d", ci, members, len(cs.groups), ntuples, ngroups)
		}
		if want := int64(len(cs.consts) + len(cs.vgroups)); violations != want {
			return fmt.Errorf("incremental: snapshot: CFD %d violation counter %d, stores hold %d", ci, violations, want)
		}
		cs.violations.Store(violations)
	}
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.s) {
		return fmt.Errorf("incremental: snapshot: %d trailing bytes", len(d.s)-d.off)
	}
	return nil
}
