package incremental

import (
	"errors"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/wal"
)

// ErrNoState reports a WAL directory without a recoverable snapshot.
var ErrNoState = errors.New("incremental: WAL directory holds no snapshot")

// Open boots a durable monitor from its WAL directory alone: the schema
// comes from the latest snapshot, so the original data source is neither
// needed nor read. Σ still comes from the caller — constraints are
// configuration, not state — and recovery verifies it against the image
// as usual. Returns ErrNoState when the directory has no snapshot to
// read the schema from (nothing was ever journaled there); callers fall
// back to seeding from the source via Load.
func Open(sigma []*core.CFD, opts Options) (*Monitor, error) {
	if opts.Durable == "" {
		return nil, errors.New("incremental: Open requires Options.Durable")
	}
	schema, err := SnapshotSchema(opts.Durable)
	if err != nil {
		return nil, err
	}
	return New(schema, sigma, opts)
}

// SnapshotSchema reads the schema embedded in the latest snapshot of a
// WAL directory. Only the header and schema section are decoded — not
// the relation image — so the call is cheap at any snapshot size.
func SnapshotSchema(dir string) (*relation.Schema, error) {
	snaps, _, err := wal.Generations(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNoState
		}
		return nil, err
	}
	if len(snaps) == 0 {
		return nil, ErrNoState
	}
	f, err := os.Open(wal.SnapshotPath(dir, snaps[len(snaps)-1]))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// The schema section follows the short header: read a prefix,
	// doubling it until the section fits or the file ends.
	for n := 4 << 10; ; n *= 2 {
		buf := make([]byte, n)
		k, err := f.ReadAt(buf, 0)
		if err != nil && err != io.EOF {
			return nil, err
		}
		schema, err := headerSchema(buf[:k])
		if err == nil || k < n {
			return schema, err
		}
	}
}
