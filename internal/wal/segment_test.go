package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// writeSegment appends the payloads to a fresh segment and returns its
// path and the per-record frame boundaries (cumulative byte offsets).
func writeSegment(t testing.TB, payloads [][]byte) (path string, bounds []int64) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "wal-00000001")
	l, err := Create(path, false)
	if err != nil {
		t.Fatal(err)
	}
	var off int64
	bounds = []int64{0}
	for _, p := range payloads {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
		off += headerSize + int64(len(p))
		bounds = append(bounds, off)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return path, bounds
}

func segPayloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("record-%03d-%s", i, bytes.Repeat([]byte{byte('a' + i%26)}, i%40)))
	}
	return out
}

// TestChunkRoundTrip ships a segment in small chunks and checks the
// reassembled payload sequence is exact — every chunk cut lands on a
// record boundary and the cursor resumes precisely where the last chunk
// ended.
func TestChunkRoundTrip(t *testing.T) {
	payloads := segPayloads(50)
	path, bounds := writeSegment(t, payloads)
	size := bounds[len(bounds)-1]

	for _, maxBytes := range []int{16, 64, 1 << 20} {
		var got [][]byte
		var off int64
		for off < size {
			data, records, err := ReadChunk(path, off, maxBytes, size)
			if err != nil {
				t.Fatalf("max=%d off=%d: %v", maxBytes, off, err)
			}
			if len(data) == 0 {
				t.Fatalf("max=%d off=%d: empty chunk below segment end %d", maxBytes, off, size)
			}
			consumed, n, err := ScanRecords(data, func(p []byte) error {
				got = append(got, append([]byte(nil), p...))
				return nil
			})
			if err != nil {
				t.Fatalf("max=%d off=%d: scan: %v", maxBytes, off, err)
			}
			if consumed != int64(len(data)) || n != records {
				t.Fatalf("max=%d off=%d: scan consumed %d/%d records %d/%d", maxBytes, off, consumed, len(data), n, records)
			}
			off += consumed
		}
		if len(got) != len(payloads) {
			t.Fatalf("max=%d: shipped %d records, want %d", maxBytes, len(got), len(payloads))
		}
		for i := range got {
			if !bytes.Equal(got[i], payloads[i]) {
				t.Fatalf("max=%d: record %d = %q, want %q", maxBytes, i, got[i], payloads[i])
			}
		}
	}
}

// TestChunkTinyMaxBytes: a cap below one frame header must not panic or
// wedge — the cap is raised to the minimum that can make progress, and
// the whole segment still ships one record at a time.
func TestChunkTinyMaxBytes(t *testing.T) {
	payloads := segPayloads(5)
	path, bounds := writeSegment(t, payloads)
	size := bounds[len(bounds)-1]
	for _, maxBytes := range []int{-3, 0, 1, 7} {
		var off int64
		n := 0
		for off < size {
			data, records, err := ReadChunk(path, off, maxBytes, size)
			if err != nil {
				t.Fatalf("max=%d off=%d: %v", maxBytes, off, err)
			}
			if len(data) == 0 {
				t.Fatalf("max=%d off=%d: cursor wedged", maxBytes, off)
			}
			n += records
			off += int64(len(data))
		}
		if n != len(payloads) {
			t.Fatalf("max=%d: shipped %d records, want %d", maxBytes, n, len(payloads))
		}
	}
}

// TestChunkOversizedRecord: a record larger than the chunk cap ships
// alone instead of wedging the cursor.
func TestChunkOversizedRecord(t *testing.T) {
	big := bytes.Repeat([]byte("x"), 4096)
	payloads := [][]byte{[]byte("small"), big, []byte("after")}
	path, bounds := writeSegment(t, payloads)
	size := bounds[len(bounds)-1]

	var got [][]byte
	var off int64
	for off < size {
		data, _, err := ReadChunk(path, off, 64, size)
		if err != nil {
			t.Fatalf("off=%d: %v", off, err)
		}
		if len(data) == 0 {
			t.Fatalf("off=%d: cursor wedged on oversized record", off)
		}
		consumed, _, err := ScanRecords(data, func(p []byte) error {
			got = append(got, append([]byte(nil), p...))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		off += consumed
	}
	if len(got) != 3 || !bytes.Equal(got[1], big) {
		t.Fatalf("shipped %d records; big intact = %v", len(got), len(got) > 1 && bytes.Equal(got[1], big))
	}
}

// TestScanRecordsTornChunk: a chunk cut mid-record (the network died, or
// the cap landed inside a frame) applies its whole-record prefix and
// reports the boundary so the cursor re-requests the torn tail — shipped
// streams resume exactly like crashed appends recover.
func TestScanRecordsTornChunk(t *testing.T) {
	payloads := segPayloads(8)
	path, bounds := writeSegment(t, payloads)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut at every byte offset: the scan must always stop at the last
	// record boundary at or before the cut, and never error.
	for cut := 0; cut <= len(whole); cut++ {
		n := 0
		consumed, records, err := ScanRecords(whole[:cut], func(p []byte) error {
			if !bytes.Equal(p, payloads[n]) {
				t.Fatalf("cut=%d: record %d mismatch", cut, n)
			}
			n++
			return nil
		})
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		wantBound := int64(0)
		wantRecords := 0
		for i, b := range bounds {
			if b <= int64(cut) {
				wantBound, wantRecords = b, i
			}
		}
		if consumed != wantBound || records != wantRecords {
			t.Fatalf("cut=%d: consumed %d records %d, want %d/%d", cut, consumed, records, wantBound, wantRecords)
		}
		// Resume from the reported boundary: the rest of the stream ships
		// cleanly.
		rest, _, err := ScanRecords(whole[consumed:], nil)
		if err != nil {
			t.Fatalf("cut=%d: resume: %v", cut, err)
		}
		if consumed+rest != int64(len(whole)) {
			t.Fatalf("cut=%d: resume consumed %d, want %d", cut, rest, int64(len(whole))-consumed)
		}
	}
}

// TestScanRecordsCorrupt: bit damage inside a complete record is an
// error — the stream cannot be trusted past it — never a silent skip.
func TestScanRecordsCorrupt(t *testing.T) {
	payloads := segPayloads(4)
	path, bounds := writeSegment(t, payloads)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte inside the third record.
	bad := append([]byte(nil), whole...)
	bad[bounds[2]+headerSize] ^= 0x40
	consumed, records, err := ScanRecords(bad, nil)
	if err == nil {
		t.Fatal("corrupt record scanned without error")
	}
	if consumed != bounds[2] || records != 2 {
		t.Fatalf("corrupt scan consumed %d records %d, want %d/2", consumed, records, bounds[2])
	}

	// ReadChunk refuses to serve across the damage.
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadChunk(path, 0, 1<<20, int64(len(bad))); err == nil {
		t.Fatal("ReadChunk served a corrupt segment without error")
	}
	// ...but the records before it still ship.
	data, n, err := ReadChunk(path, 0, int(bounds[2]), int64(len(bad)))
	if err != nil || n != 2 || int64(len(data)) != bounds[2] {
		t.Fatalf("prefix before damage: data=%d records=%d err=%v", len(data), n, err)
	}
}

// TestReadChunkLimit: the pinned-size limit caps what ships — bytes past
// it (an append in progress on the live tail) are invisible, and an
// offset past the limit is the caller's bug.
func TestReadChunkLimit(t *testing.T) {
	payloads := segPayloads(6)
	path, bounds := writeSegment(t, payloads)

	limit := bounds[3]
	data, records, err := ReadChunk(path, 0, 1<<20, limit)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != limit || records != 3 {
		t.Fatalf("limited chunk: %d bytes %d records, want %d/3", len(data), records, limit)
	}
	if _, _, err := ReadChunk(path, limit+1, 1<<20, limit); err == nil {
		t.Fatal("offset past limit accepted")
	}
	// At the limit exactly: an empty chunk, not an error — the cursor is
	// simply caught up.
	data, records, err = ReadChunk(path, limit, 1<<20, limit)
	if err != nil || len(data) != 0 || records != 0 {
		t.Fatalf("caught-up chunk: %d bytes %d records err=%v", len(data), records, err)
	}
}

// TestSize: the shipping bound covers every appended record the moment
// Append returns — there is no buffer to flush first.
func TestSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-00000001")
	l, err := Create(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	size, err := l.Size()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(headerSize + 5); size != want {
		t.Fatalf("Size = %d, want %d", size, want)
	}
	data, records, err := ReadChunk(path, 0, 1<<20, size)
	if err != nil || records != 1 || int64(len(data)) != size {
		t.Fatalf("live tail chunk: %d bytes %d records err=%v", len(data), records, err)
	}
}

// TestAppendVisibleWithoutSync: an acknowledged record has reached the
// file even with fsync off and no Sync or Close — a second handle (what
// recovery after a process kill opens) replays it.
func TestAppendVisibleWithoutSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-00000001")
	l, err := Create(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, p := range []string{"one", "two"} {
		if err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	n, _, torn, err := Replay(path, func(p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if err != nil || torn || n != 2 || got[0] != "one" || got[1] != "two" {
		t.Fatalf("replay through a second handle: %v records=%d torn=%v err=%v", got, n, torn, err)
	}
}
