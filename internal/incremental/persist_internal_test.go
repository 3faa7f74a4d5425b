package incremental

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/wal"
)

func snapshotFixture(t *testing.T) (*relation.Schema, []*core.CFD, *Monitor) {
	t.Helper()
	schema := relation.MustSchema("cust",
		relation.Attr("CC"), relation.Attr("AC"), relation.Attr("PN"),
		relation.Attribute{Name: "CT", Domain: relation.Enum("city", "MH", "NYC", "PHI")})
	sigma, err := core.ParseSet(`
[CC, AC] -> [CT]
[CC=01, AC=908] -> [CT=MH]
[CC, AC] -> [PN, CT]
`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(schema, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range [][]string{
		{"01", "908", "1111111", "NYC"}, // breaks 908→MH and will split its group
		{"01", "908", "2222222", "MH"},
		{"01", "212", "3333333", "NYC"},
		// The (01, 212) group spills: three distinct CT values and four
		// distinct PN values, so both RHS distributions of [CC, AC] ->
		// [PN, CT] carry spill entries into the image.
		{"01", "212", "4444444", "MH"},
		{"01", "212", "5555555", "PHI"},
		{"01", "212", "6666666", "NYC"},
	} {
		if _, _, err := m.Insert(relation.Tuple(tp)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Delete(1); err != nil {
		t.Fatal(err)
	}
	return schema, sigma, m
}

// TestSnapshotRoundTrip: WriteSnapshot → readSnapshot must reproduce the
// tuples, keys, violation set and key allocator exactly — and the group
// distributions behind the violation set: deleting the spilled group's
// members one by one on both monitors retires its violations at the
// same step, first under the one-attribute RHS (CT agrees), then under
// the two-attribute one (PN agrees too).
func TestSnapshotRoundTrip(t *testing.T) {
	schema, sigma, m := snapshotFixture(t)
	var buf bytes.Buffer
	if err := m.writeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := New(schema, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.readSnapshot(bytes.NewReader(buf.Bytes()), int64(buf.Len())); err != nil {
		t.Fatal(err)
	}
	if m2.Len() != m.Len() {
		t.Fatalf("Len = %d, want %d", m2.Len(), m.Len())
	}
	if got, want := m2.Keys(), m.Keys(); len(got) != len(want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Keys = %v, want %v", got, want)
			}
		}
	}
	for _, k := range m.Keys() {
		want, _ := m.Get(k)
		got, ok := m2.Get(k)
		if !ok || !got.Equal(want) {
			t.Fatalf("tuple %d = %v, want %v", k, got, want)
		}
	}
	if !m2.Violations().Equal(m.Violations()) {
		t.Fatalf("violations diverge after round trip")
	}
	if m2.ViolationCount() != m.ViolationCount() {
		t.Fatalf("ViolationCount = %d, want %d", m2.ViolationCount(), m.ViolationCount())
	}
	for _, step := range []struct {
		key     int64
		retired int
	}{{3, 0}, {4, 1}, {5, 1}} {
		k := step.key
		want, err := m.Delete(k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m2.Delete(k)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Added, got.Removed) != fmt.Sprint(want.Added, want.Removed) {
			t.Fatalf("delete %d: restored delta %v/%v, want %v/%v", k, got.Added, got.Removed, want.Added, want.Removed)
		}
		if len(want.Removed) != step.retired {
			t.Fatalf("delete %d retired %v, want %d variable violations", k, want.Removed, step.retired)
		}
		if !m2.Violations().Equal(m.Violations()) {
			t.Fatalf("delete %d: violations diverge", k)
		}
	}
	// The key allocator must continue past the deleted keys.
	key, _, err := m2.Insert(relation.Tuple{"01", "212", "7777777", "NYC"})
	if err != nil {
		t.Fatal(err)
	}
	if key != 6 {
		t.Fatalf("next key after restore = %d, want 6", key)
	}
}

// countingWriter counts the Write calls it receives and their bytes.
type countingWriter struct{ writes, size int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.size += len(p)
	return len(p), nil
}

// TestSnapshotWritesInBlocks: the encoder frames the image into blocks,
// so writeSnapshot makes one Write per block plus the magic and the
// checksum — not one per value — and the image still reads back.
func TestSnapshotWritesInBlocks(t *testing.T) {
	schema, sigma, _ := snapshotFixture(t)
	rel := relation.New(schema)
	for i := 0; i < 20000; i++ {
		rel.MustInsert("01", fmt.Sprint(900+i%50), fmt.Sprintf("%07d", i), []string{"MH", "NYC", "PHI"}[i%3])
	}
	m, err := Load(rel, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var cw countingWriter
	if err := m.writeSnapshot(&cw); err != nil {
		t.Fatal(err)
	}
	limit := (cw.size+snapBlock-1)/snapBlock + 2
	t.Logf("%d bytes in %d writes (limit %d)", cw.size, cw.writes, limit)
	if cw.size < 4*snapBlock {
		t.Fatalf("image of %d bytes spans too few blocks to test framing", cw.size)
	}
	if cw.writes > limit {
		t.Fatalf("writeSnapshot made %d writes for %d bytes, want at most %d", cw.writes, cw.size, limit)
	}
	var buf bytes.Buffer
	if err := m.writeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := New(schema, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.readSnapshot(bytes.NewReader(buf.Bytes()), int64(buf.Len())); err != nil {
		t.Fatal(err)
	}
	if m2.Len() != m.Len() || !m2.Violations().Equal(m.Violations()) {
		t.Fatalf("block-framed image read back %d tuples, want %d with the same violations", m2.Len(), m.Len())
	}
}

// TestSnapshotRejectsCorruption: a flipped byte anywhere in the body must
// fail the CRC, mismatched schema/Σ must be refused, and so must a group
// section whose distributions contradict its group.
func TestSnapshotRejectsCorruption(t *testing.T) {
	schema, sigma, m := snapshotFixture(t)
	var buf bytes.Buffer
	if err := m.writeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	corrupt := append([]byte(nil), buf.Bytes()...)
	corrupt[len(corrupt)/2] ^= 0x40
	m2, _ := New(schema, sigma, Options{})
	if err := m2.readSnapshot(bytes.NewReader(corrupt), 0); err == nil {
		t.Fatal("corrupt image must fail the CRC")
	}

	truncated := buf.Bytes()[:buf.Len()/2]
	m3, _ := New(schema, sigma, Options{})
	if err := m3.readSnapshot(bytes.NewReader(truncated), 0); err == nil {
		t.Fatal("truncated image must be rejected")
	}

	otherSigma, err := core.ParseSet("[CC] -> [CT]")
	if err != nil {
		t.Fatal(err)
	}
	m4, _ := New(schema, otherSigma, Options{})
	if err := m4.readSnapshot(bytes.NewReader(buf.Bytes()), int64(buf.Len())); err == nil {
		t.Fatal("Σ mismatch must be rejected")
	}

	otherSchema := relation.MustSchema("cust",
		relation.Attr("CC"), relation.Attr("AC"), relation.Attr("PN"), relation.Attr("CT"))
	m5, _ := New(otherSchema, sigma, Options{})
	if err := m5.readSnapshot(bytes.NewReader(buf.Bytes()), int64(buf.Len())); err == nil {
		t.Fatal("schema mismatch (lost domain) must be rejected")
	}

	// Inconsistent group sections under a valid CRC, as a buggy writer
	// would produce them, are refused with an error — no panic, and no
	// allocation sized by a claimed count.
	ab := relation.MustSchema("T", relation.Attr("A"), relation.Attr("B"))
	abSigma := []*core.CFD{core.MustCFD([]string{"A"}, []string{"B"},
		core.PatternRow{X: []core.Pattern{core.W()}, Y: []core.Pattern{core.W()}})}
	m6, err := New(ab, abSigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if _, _, err := m6.Insert(relation.Tuple{"a", "b"}); err != nil {
			t.Fatal(err)
		}
	}
	buf.Reset()
	if err := m6.writeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// The image ends in the one CFD's section: violation counter 0, no
	// constant violations, one group — X ID 0 ("a"), selected, size 2 —
	// and its B distribution: one distinct value, ID 1 ("b") × 2.
	tail := []byte{0, 0, 1, 0, 1, 2, 1, 1, 2}
	img := buf.Bytes()
	at := len(img) - 4 - len(tail)
	if !bytes.Equal(img[at:len(img)-4], tail) {
		t.Fatalf("image tail %v, want %v", img[at:len(img)-4], tail)
	}
	for _, c := range []struct {
		name string
		tail []byte
		want string
	}{
		{"counts short of the size", []byte{0, 0, 1, 0, 1, 2, 1, 1, 1}, "distinct values over"},
		{"distinct above the size", []byte{0, 0, 1, 0, 1, 2, 3, 1, 1, 0, 1, 1, 1}, "outside group size"},
		{"count above the size", []byte{0, 0, 1, 0, 1, 2, 1, 1, 3}, "overruns group size"},
		{"one value listed twice", []byte{0, 0, 1, 0, 1, 2, 2, 1, 1, 1, 1}, "distinct values over"},
		{"out-of-table value ID", []byte{0, 0, 1, 0, 1, 2, 1, 9, 2}, "outside table"},
		{"group past the tuples", []byte{0, 0, 1, 0, 1, 3, 1, 1, 3}, "overruns 2 tuples"},
		{"violation counter off", []byte{1, 0, 1, 0, 1, 2, 1, 1, 2}, "violation counter"},
		{"huge group count", append([]byte{0, 0}, binary.AppendUvarint(nil, 1<<40)...), "overruns image"},
		{"huge distinct count", append([]byte{0, 0, 1, 0, 1, 2}, binary.AppendUvarint(nil, 1<<40)...), "overruns image"},
	} {
		bad := append(append(append([]byte(nil), img[:at]...), c.tail...), 0, 0, 0, 0)
		reseal(bad)
		m7, err := New(ab, abSigma, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = m7.readSnapshot(bytes.NewReader(bad), int64(len(bad)))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: refusing the image allocated %d bytes", c.name, grew)
		}
	}
}

// reseal recomputes an image's CRC trailer after a test edited its body.
func reseal(img []byte) []byte {
	body := img[len(snapMagic) : len(img)-4]
	binary.LittleEndian.PutUint32(img[len(img)-4:], crc32.Checksum(body, snapTable))
	return img
}

// oldImageTuples are the tuples testdata/snap-v3.bin holds: the paper's
// Figure 1 instance plus two inserts (keys 6 and 7), less key 4, with
// key 7's STR updated — written by the version 3 codec at epoch 3, with
// constant and variable violations.
var oldImageTuples = map[int64]relation.Tuple{
	0: {"01", "908", "1111111", "Mike", "Tree Ave.", "NYC", "07974"},
	1: {"01", "908", "1111111", "Rick", "Tree Ave.", "NYC", "07974"},
	2: {"01", "212", "2222222", "Joe", "Elm Str.", "NYC", "01202"},
	3: {"01", "212", "2222222", "Jim", "Elm Str.", "NYC", "02404"},
	5: {"44", "131", "4444444", "Ian", "High St.", "EDI", "EH4 1DT"},
	6: {"01", "215", "3333333", "Ann", "Oak Ave.", "NYC", "02394"},
	7: {"44", "131", "4444444", "Ivy", "Low St.", "EDI", "EH4 1DT"},
}

// TestOlderSnapshotsFoldOnRecovery: a WAL directory whose snapshot a
// version 3 or version 2 build wrote boots by folding the image's tuples
// through the apply — the same tuples, next key, epoch and violations as
// a fresh monitor over those tuples — and its next snapshot is version 4,
// which a restart recovers.
func TestOlderSnapshotsFoldOnRecovery(t *testing.T) {
	schema := relation.MustSchema("cust",
		relation.Attr("CC"), relation.Attr("AC"), relation.Attr("PN"),
		relation.Attr("NM"), relation.Attr("STR"), relation.Attr("CT"), relation.Attr("ZIP"))
	sigma, err := core.ParseSet(`
[CC=44, ZIP] -> [STR]
[CC, AC, PN] -> [STR, CT, ZIP]
[CC=01, AC=908, PN] -> [STR, CT=MH, ZIP]
[CC=01, AC=212, PN] -> [STR, CT=NYC, ZIP]
[CC, AC] -> [CT]
[CC=01, AC=215] -> [CT=PHI]
[CC=44, AC=141] -> [CT=GLA]
`)
	if err != nil {
		t.Fatal(err)
	}
	v3, err := os.ReadFile("testdata/snap-v3.bin")
	if err != nil {
		t.Fatal(err)
	}
	if string(v3[:len(snapMagic)]) != "CFDSNAP\x03" {
		t.Fatalf("fixture magic %q", v3[:len(snapMagic)])
	}
	// The version 2 image is the same state without the epoch field.
	body := v3[len(snapMagic) : len(v3)-4]
	_, nk := binary.Uvarint(body)
	_, ne := binary.Uvarint(body[nk:])
	v2 := append([]byte("CFDSNAP\x02"), body[:nk]...)
	v2 = reseal(append(append(v2, body[nk+ne:]...), 0, 0, 0, 0))

	fresh, err := New(schema, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var cs ChangeSet
	for k, tp := range oldImageTuples {
		cs.InsertKeyed(k, tp)
	}
	if _, err := fresh.Apply(&cs); err != nil {
		t.Fatal(err)
	}
	want := fresh.Violations()
	if want.Total() == 0 {
		t.Fatal("fixture holds no violations")
	}

	check := func(m *Monitor, epoch uint64) {
		t.Helper()
		if m.Len() != len(oldImageTuples) {
			t.Fatalf("Len = %d, want %d", m.Len(), len(oldImageTuples))
		}
		for k, tp := range oldImageTuples {
			if got, ok := m.Get(k); !ok || !got.Equal(tp) {
				t.Fatalf("tuple %d = %v, want %v", k, got, tp)
			}
		}
		if m.NextKey() != 8 || m.Epoch() != epoch {
			t.Fatalf("next key %d, epoch %d; want 8, %d", m.NextKey(), m.Epoch(), epoch)
		}
		if got := m.Violations(); !got.Equal(want) {
			t.Fatalf("violations %v, want %v", describeState(got), describeState(want))
		}
		if m.ViolationCount() != int64(want.Total()) {
			t.Fatalf("ViolationCount = %d, want %d", m.ViolationCount(), want.Total())
		}
	}
	for _, c := range []struct {
		name  string
		img   []byte
		epoch uint64
	}{{"v3", v3, 3}, {"v2", v2, 0}} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(wal.SnapshotPath(dir, 1), c.img, 0o644); err != nil {
				t.Fatal(err)
			}
			m, err := New(schema, sigma, Options{Durable: dir})
			if err != nil {
				t.Fatal(err)
			}
			check(m, c.epoch)
			if err := m.ForceSnapshot(); err != nil {
				t.Fatal(err)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			snaps, _, err := wal.Generations(dir)
			if err != nil {
				t.Fatal(err)
			}
			img, err := os.ReadFile(wal.SnapshotPath(dir, snaps[len(snaps)-1]))
			if err != nil {
				t.Fatal(err)
			}
			if string(img[:len(snapMagic)]) != snapMagic {
				t.Fatalf("snapshot after upgrade has magic %q, want %q", img[:len(snapMagic)], snapMagic)
			}
			m2, err := New(schema, sigma, Options{Durable: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Close()
			check(m2, c.epoch)
		})
	}
}

func describeState(st *State) string {
	var b strings.Builder
	for i, v := range st.PerCFD {
		fmt.Fprintf(&b, "cfd %d: const %v var %v; ", i, v.ConstTuples, v.VariableKeys)
	}
	return b.String()
}
