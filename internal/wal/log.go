// Package wal holds the on-disk machinery behind the durable serving
// path: a length-prefixed, CRC-checked append-only change log plus
// atomically-written snapshot files, organized in generations.
//
// A generation pairs one snapshot with one log segment: snap-N is a full
// state image, wal-N is the changes applied since it was taken. Rolling
// to generation N+1 writes snap-(N+1) (temp file, fsync, rename, directory
// fsync), starts an empty wal-(N+1), and only then garbage-collects
// generation N — so at every instant the directory contains at least one
// complete recovery path. Recovery picks the newest snapshot and replays
// its log segment; a torn tail (partial record, CRC mismatch) marks the
// crash point and everything before it is kept. A corrupt snapshot fails
// the boot loudly — there is no silent fallback to an older generation,
// which normal rotation garbage-collects anyway.
//
// The package is deliberately ignorant of what the records mean: payloads
// are opaque byte slices. internal/incremental supplies the operation
// codec and the snapshot serialization.
package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"repro/internal/obs"
)

// headerSize is the per-record framing: uint32 payload length followed by
// uint32 CRC-32 (IEEE) of the payload, both little-endian.
const headerSize = 8

// maxRecord bounds a single record; a larger length in a header is treated
// as corruption rather than an allocation request.
const maxRecord = 64 << 20

// Log is an append-only record log. Append hands each framed record to
// the OS in one write(2) before it returns, so a record is in the page
// cache — and survives the process dying — as soon as it is
// acknowledged; with fsync enabled Append also syncs it to the device
// (surviving OS crash and power loss). There is no user-space buffer.
//
// A Log is not safe for concurrent use; callers serialize appends (the
// Monitor's writer lock does this).
type Log struct {
	f     *os.File
	fsync bool
	// buf is the reused frame: header and payload, written in one call.
	buf []byte

	// stats are the optional metric hooks (obs handles are nil-safe).
	stats LogStats
}

// LogStats are optional observability hooks a Log reports through: the
// owner (the Monitor's journal) registers the series and hands the
// handles down, keeping this package free of metric names. Any field
// may be nil.
type LogStats struct {
	// AppendSeconds times framing + writing one record, fsync excluded.
	AppendSeconds *obs.Histogram
	// SyncSeconds times Sync: the file fsync.
	SyncSeconds *obs.Histogram
	// Records counts appended records, Bytes the appended bytes
	// including framing.
	Records *obs.Counter
	Bytes   *obs.Counter
}

// SetStats arms the metric hooks. Not safe to call concurrently with
// Append/Sync; callers set stats right after Create/OpenAppend.
func (l *Log) SetStats(s LogStats) { l.stats = s }

// Create starts a new, empty log segment at path.
func Create(path string, fsync bool) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &Log{f: f, fsync: fsync}, nil
}

// OpenAppend opens an existing segment for appending (after recovery has
// replayed and, if necessary, truncated it).
func OpenAppend(path string, fsync bool) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &Log{f: f, fsync: fsync}, nil
}

// Append frames one record and writes it with a single write(2): when
// Append returns the record is readable through any other handle on the
// file. With fsync enabled it is also on the device.
func (l *Log) Append(payload []byte) error {
	if len(payload) > maxRecord {
		return fmt.Errorf("wal: record of %d bytes exceeds limit", len(payload))
	}
	start := time.Now()
	l.buf = binary.LittleEndian.AppendUint32(l.buf[:0], uint32(len(payload)))
	l.buf = binary.LittleEndian.AppendUint32(l.buf, crc32.ChecksumIEEE(payload))
	l.buf = append(l.buf, payload...)
	_, err := l.f.Write(l.buf)
	if cap(l.buf) > 1<<20 {
		l.buf = nil // one huge batch must not pin its frame for the log's life
	}
	if err != nil {
		return err
	}
	l.stats.Records.Inc()
	l.stats.Bytes.Add(uint64(headerSize + len(payload)))
	l.stats.AppendSeconds.ObserveSince(start)
	if l.fsync {
		return l.Sync()
	}
	return nil
}

// Size reports the segment's current byte length — the upper bound a
// shipping cursor may read to. Everything below it is whole framed
// records, since every acknowledged Append has reached the file.
func (l *Log) Size() (int64, error) {
	fi, err := l.f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// Sync fsyncs the file.
func (l *Log) Sync() error {
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.stats.SyncSeconds.ObserveSince(start)
	return nil
}

// Close syncs and closes the segment.
func (l *Log) Close() error {
	if err := l.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// Replay reads the segment at path, calling fn for each intact record in
// order. It returns the number of records delivered, the byte offset of
// the first damaged or incomplete record (== file size when the log is
// clean), and whether the tail was torn. The payload passed to fn is only
// valid during the call.
//
// A torn tail — truncated header, truncated payload, or CRC mismatch — is
// the signature of a crash mid-append; everything before it is trusted,
// everything from it on is garbage a caller should truncate away before
// appending again. An error from fn aborts the replay.
func Replay(path string, fn func(payload []byte) error) (records int, validLen int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, false, err
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, 0, false, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, false, err
	}
	r := bufio.NewReader(f)
	var (
		off int64
		hdr [headerSize]byte
		buf []byte
	)
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				return records, off, false, nil // clean end
			}
			if err == io.ErrUnexpectedEOF {
				return records, off, true, nil // torn header
			}
			return records, off, false, err
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n > maxRecord || off+headerSize+int64(n) > size {
			return records, off, true, nil // absurd length or runs past EOF
		}
		if uint32(cap(buf)) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return records, off, true, nil // torn payload
			}
			return records, off, false, err
		}
		if crc32.ChecksumIEEE(buf) != want {
			return records, off, true, nil // corrupt payload
		}
		if err := fn(buf); err != nil {
			return records, off, false, err
		}
		records++
		off += headerSize + int64(n)
	}
}
