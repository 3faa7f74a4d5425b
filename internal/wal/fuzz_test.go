package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"
)

// The fuzz targets of this file feed the two decoders that read bytes
// this process did not write — a follower's shipped chunk (ScanRecords)
// and the batch body inside a record (DecodeBatch) — arbitrary input,
// seeded from real encodings. Run one with
//
//	go test -run '^$' -fuzz '^FuzzScanRecords$' -fuzztime 30s ./internal/wal/

// seedStream is a clean stream of framed records, as a segment holds it
// and a primary ships it: batch bodies written through a Log.
func seedStream(f *testing.F) []byte {
	f.Helper()
	payloads := [][]byte{
		EncodeBatch([]byte{0xFF}, [][]byte{[]byte("insert k1"), []byte("update k1 CT MH")}),
		EncodeBatch(nil, nil),
		[]byte("single-op record"),
		EncodeBatch([]byte{0xFF}, [][]byte{nil, []byte(""), bytes.Repeat([]byte{'x'}, 200)}),
	}
	path, _ := writeSegment(f, payloads)
	stream, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return stream
}

// FuzzScanRecords: ScanRecords never panics and never consumes past its
// input, and the consumed prefix is whole records: scanning it again
// consumes all of it without error and counts the same records.
func FuzzScanRecords(f *testing.F) {
	stream := seedStream(f)
	for i := 0; i <= len(stream); i++ {
		f.Add(stream[:i]) // a cut at every byte: torn headers and payloads
	}
	bad := bytes.Clone(stream)
	bad[headerSize] ^= 0xFF // the first payload no longer matches its CRC
	f.Add(bad)
	huge := binary.LittleEndian.AppendUint32(nil, maxRecord+1)
	huge = binary.LittleEndian.AppendUint32(huge, 0)
	f.Add(append(bytes.Clone(stream), huge...)) // a length above maxRecord after whole records
	f.Fuzz(func(t *testing.T, chunk []byte) {
		consumed, records, _ := ScanRecords(chunk, func([]byte) error { return nil })
		if consumed < 0 || consumed > int64(len(chunk)) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(chunk))
		}
		again, n, err := ScanRecords(chunk[:consumed], nil)
		if err != nil || again != consumed || n != records {
			t.Fatalf("re-scan of the %d-byte prefix (%d records): consumed %d, %d records, err %v", consumed, records, again, n, err)
		}
	})
}

// FuzzDecodeBatch: DecodeBatch never panics, and whatever it accepts
// survives an EncodeBatch round trip: the entries re-encode to a body
// no longer than the input that decodes to the same entries, and
// re-encoding those gives the same bytes.
func FuzzDecodeBatch(f *testing.F) {
	good := EncodeBatch(nil, [][]byte{[]byte("insert k1"), nil, []byte("update k1 CT MH")})
	for i := 0; i <= len(good); i++ {
		f.Add(good[:i]) // a cut at every byte
	}
	if _, _, err := ScanRecords(seedStream(f), func(p []byte) error {
		f.Add(bytes.Clone(p))
		if len(p) > 0 && p[0] == 0xFF {
			f.Add(bytes.Clone(p[1:])) // the body after the caller's marker
		}
		return nil
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(binary.AppendUvarint(nil, 1<<40))                          // a count far above the entries
	f.Add(append(binary.AppendUvarint([]byte{1}, maxRecord+1), 'x')) // an entry length above the body
	f.Fuzz(func(t *testing.T, body []byte) {
		subs, err := decodeAll(body)
		if err != nil {
			return
		}
		enc := EncodeBatch(nil, subs)
		if len(enc) > len(body) {
			t.Fatalf("%d-byte body re-encodes to %d bytes", len(body), len(enc))
		}
		back, err := decodeAll(enc)
		if err != nil {
			t.Fatalf("re-encoded body does not decode: %v", err)
		}
		if !bytes.Equal(EncodeBatch(nil, back), enc) {
			t.Fatalf("round trip of %q changed its entries: %q", subs, back)
		}
	})
}

// decodeAll collects DecodeBatch's entries.
func decodeAll(body []byte) ([][]byte, error) {
	var subs [][]byte
	err := DecodeBatch(body, func(sub []byte) error {
		subs = append(subs, sub)
		return nil
	})
	return subs, err
}
