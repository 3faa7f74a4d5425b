package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Segment shipping: the chunk codec behind WAL replication. A primary
// serves record-aligned byte ranges of its segments (closed ones and the
// flushed prefix of the live tail) and a follower appends them to its own
// copy of the same segment, so the shipped stream IS the framing of
// log.go — no second wire format, and a follower's directory recovers
// with the exact machinery a primary's does.
//
// Both ends cut at record boundaries: ReadChunk never returns a partial
// record, and ScanRecords on the receiving side stops at the last intact
// boundary, so a connection torn mid-record leaves the cursor exactly
// where a crashed append would — the next request resumes from the
// boundary, and nothing is applied twice or by halves.

// frameStatus classifies the end of a frame scan.
type frameStatus int

const (
	// frameClean: the scan consumed the input exactly.
	frameClean frameStatus = iota
	// frameTorn: the input ends inside a record (truncated header or
	// payload) — normal at a chunk cap or a cut connection.
	frameTorn
	// frameCorrupt: a complete record failed its CRC, or a header claims
	// an absurd length — real damage, not a short read.
	frameCorrupt
)

// scanFrames walks the framed records in p, calling fn (when non-nil) for
// each intact payload in order. It returns the byte length of the whole-
// record prefix, the record count, and how the scan ended. An error from
// fn aborts the scan.
func scanFrames(p []byte, fn func(payload []byte) error) (consumed int64, records int, st frameStatus, err error) {
	off := 0
	for {
		if len(p)-off < headerSize {
			if len(p)-off == 0 {
				return int64(off), records, frameClean, nil
			}
			return int64(off), records, frameTorn, nil
		}
		n := binary.LittleEndian.Uint32(p[off : off+4])
		want := binary.LittleEndian.Uint32(p[off+4 : off+8])
		if n > maxRecord {
			return int64(off), records, frameCorrupt, nil
		}
		if len(p)-off-headerSize < int(n) {
			return int64(off), records, frameTorn, nil
		}
		payload := p[off+headerSize : off+headerSize+int(n)]
		if crc32.ChecksumIEEE(payload) != want {
			return int64(off), records, frameCorrupt, nil
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return int64(off), records, frameClean, err
			}
		}
		records++
		off += headerSize + int(n)
	}
}

// ScanRecords parses the framed records of a shipped chunk, calling fn
// for each payload in order. It returns the byte length of the applied
// whole-record prefix (the cursor advance) and the record count. A chunk
// that ends mid-record is not an error — the consumed prefix is applied
// and the torn tail re-ships on the next request — but a CRC mismatch or
// absurd length inside the chunk is: the stream can no longer be
// trusted. The payload passed to fn is only valid during the call.
func ScanRecords(chunk []byte, fn func(payload []byte) error) (consumed int64, records int, err error) {
	consumed, records, st, err := scanFrames(chunk, fn)
	if err != nil {
		return consumed, records, err
	}
	if st == frameCorrupt {
		return consumed, records, fmt.Errorf("wal: corrupt record at chunk offset %d", consumed)
	}
	return consumed, records, nil
}

// ReadChunk reads whole framed records from the segment at path, starting
// at byte offset and bounded by maxBytes of framed data and limit (the
// segment length the caller pinned — bytes past it may belong to an
// append still in progress and are not served). A record larger than maxBytes is returned
// alone, so a cursor can never wedge against the cap. The returned next
// offset is offset + len(data).
//
// The valid prefix of a segment contains only whole records (recovery
// truncates torn tails before a segment is ever served), so damage inside
// the window is reported as an error, not silently skipped — a primary
// must fail the request rather than stall its followers at the same
// cursor forever.
func ReadChunk(path string, offset int64, maxBytes int, limit int64) (data []byte, records int, err error) {
	if offset > limit {
		return nil, 0, fmt.Errorf("wal: chunk offset %d past segment end %d", offset, limit)
	}
	if maxBytes < headerSize {
		// Below one frame header nothing can ever ship — and the
		// grow-to-one-record path reads the header from the first buffer.
		maxBytes = headerSize
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	want := limit - offset
	if want > int64(maxBytes) {
		want = int64(maxBytes)
	}
	buf := make([]byte, want)
	n, err := io.ReadFull(io.NewSectionReader(f, offset, want), buf)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, 0, err
	}
	buf = buf[:n]
	consumed, records, st, _ := scanFrames(buf, nil)
	if st == frameCorrupt {
		return nil, 0, fmt.Errorf("wal: corrupt record in %s at offset %d", path, offset+consumed)
	}
	if consumed == 0 && st == frameTorn && offset+int64(len(buf)) < limit {
		// First record outgrows the cap: read exactly that one record.
		need := int64(headerSize) + int64(binary.LittleEndian.Uint32(buf[0:4]))
		if offset+need > limit {
			return nil, 0, nil // record not fully flushed yet
		}
		one := make([]byte, need)
		if _, err := io.ReadFull(io.NewSectionReader(f, offset, need), one); err != nil {
			return nil, 0, err
		}
		consumed, records, st, _ = scanFrames(one, nil)
		if st == frameCorrupt || consumed != need {
			return nil, 0, fmt.Errorf("wal: corrupt record in %s at offset %d", path, offset)
		}
		return one, records, nil
	}
	return buf[:consumed], records, nil
}
