package incremental_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"repro/internal/incremental"
	"repro/internal/relation"
	"repro/internal/wal"
)

// The failover property test: a primary is driven through a random
// mutation stream (singles, multi-op ChangeSets, generation rolls) while
// a follower tails it through a deliberately flaky chunk source that
// dies after a random number of chunks — so the "kill the primary"
// moment lands at a random record boundary of a random segment, with the
// follower an arbitrary distance behind. The follower is then promoted
// and must:
//
//  1. sit on an exact record boundary of the primary's journaled stream
//     (never between the ops of a batch, never mid-record), and
//  2. hold exactly the state of that boundary — cross-checked against
//     the single-node oracle (the batch Direct detector over the
//     mirror's prefix image), and
//  3. accept writes as a primary afterwards, with the oracle tracking.

// soakFactor scales the randomized property workloads: the nightly CI
// soak sets CFD_SOAK to run many more rounds than the PR gate pays for.
func soakFactor() int {
	if s := os.Getenv("CFD_SOAK"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 1
}

// flakySource serves a bounded number of chunks, then fails every call —
// the in-process stand-in for a primary that died mid-stream.
type flakySource struct {
	inner  incremental.ChunkSource
	budget int
}

func (s *flakySource) Snapshot(ctx context.Context) (uint64, io.ReadCloser, error) {
	return s.inner.Snapshot(ctx)
}

func (s *flakySource) Chunk(ctx context.Context, seq uint64, offset int64, maxBytes int) (incremental.ShipChunk, error) {
	if s.budget <= 0 {
		return incremental.ShipChunk{}, fmt.Errorf("flaky: primary is down")
	}
	s.budget--
	return s.inner.Chunk(ctx, seq, offset, maxBytes)
}

func TestFailoverPromotedMatchesOracle(t *testing.T) {
	cfg := streamConfigs(t)[0] // the cust / Figure 2 scenario
	rounds := 5 * soakFactor()
	stepsPerRound := 60 * soakFactor()
	if stepsPerRound > 400 {
		stepsPerRound = 400
	}
	for round := 0; round < rounds; round++ {
		round := round
		t.Run(fmt.Sprintf("round-%d", round), func(t *testing.T) {
			rng := rand.New(rand.NewSource(9000 + int64(round)))
			ctx := context.Background()
			pdir, fdir := t.TempDir(), t.TempDir()

			// Fsync per record keeps the segment size exact after every
			// apply, so file sizes ARE record boundaries.
			p, err := incremental.New(cfg.schema, cfg.sigma, incremental.Options{
				Durable: pdir, Fsync: true, RetainSegments: 16,
			})
			if err != nil {
				t.Fatal(err)
			}

			// Seed a little, then attach the follower (its snapshot fetch
			// rolls the primary to a snapshotted generation).
			mr := &mirror{m: make(map[int64]relation.Tuple)}
			nextKey := int64(0)
			randomTuple := func() relation.Tuple {
				tp := make(relation.Tuple, cfg.schema.Len())
				for i := range tp {
					pool := cfg.pools[i]
					tp[i] = pool[rng.Intn(len(pool))]
				}
				return tp
			}
			for i := 0; i < 10; i++ {
				tp := randomTuple()
				key, _, err := p.Insert(tp)
				if err != nil {
					t.Fatal(err)
				}
				mr.m[key] = tp.Clone()
				mr.order = append(mr.order, key)
				nextKey = key + 1
			}

			budget := 1 + rng.Intn(25)
			src := &flakySource{inner: incremental.NewMonitorSource(p), budget: budget}
			f, err := incremental.NewFollower(ctx, cfg.sigma,
				incremental.Options{Durable: fdir},
				incremental.FollowOptions{Source: src, MaxChunk: 1 + rng.Intn(256)})
			if err != nil {
				t.Fatal(err)
			}

			// Record boundaries: after every journaled record (and every
			// roll) remember (generation, segment size) plus the mirror
			// image of the moment. The base boundary is the snapshot the
			// follower fetched.
			type boundary struct {
				seq  uint64
				size int64
				rel  *relation.Relation
				keys []int64
			}
			mark := func() boundary {
				gen := p.JournalStats().Generation
				fi, err := os.Stat(wal.LogPath(pdir, gen))
				if err != nil {
					t.Fatal(err)
				}
				rel, keys := mr.relation(cfg.schema)
				return boundary{seq: gen, size: fi.Size(), rel: rel.Clone(), keys: append([]int64(nil), keys...)}
			}
			bounds := []boundary{mark()}

			// The mutation stream: singles, batches (one record each), and
			// occasional generation rolls; the follower syncs along, dying
			// partway through its chunk budget.
			syncsLeft := 3
			for step := 0; step < stepsPerRound; step++ {
				switch r := rng.Float64(); {
				case r < 0.06:
					if err := p.ForceSnapshot(); err != nil {
						t.Fatal(err)
					}
				case r < 0.30 && len(mr.order) > 0:
					// A multi-op ChangeSet: one record.
					var cs incremental.ChangeSet
					n := 2 + rng.Intn(5)
					pendingKeys := []int64{}
					for o := 0; o < n; o++ {
						switch q := rng.Float64(); {
						case q < 0.5 || len(mr.order)+len(pendingKeys) == 0:
							tp := randomTuple()
							cs.Insert(tp)
							mr.m[nextKey] = tp.Clone()
							pendingKeys = append(pendingKeys, nextKey)
							nextKey++
						default:
							key := mr.order[rng.Intn(len(mr.order))]
							dup := false
							// Keep batch targets distinct from earlier
							// deletes in the same batch for mirror
							// simplicity.
							for _, op := range cs.Ops {
								if op.Kind != incremental.OpInsert && op.Key == key {
									dup = true
								}
							}
							if dup {
								continue
							}
							if q < 0.75 {
								ai := rng.Intn(cfg.schema.Len())
								val := cfg.pools[ai][rng.Intn(len(cfg.pools[ai]))]
								cs.Update(key, cfg.schema.Attrs[ai].Name, val)
								mr.m[key][ai] = val
							} else {
								cs.Delete(key)
								mr.delete(key)
							}
						}
					}
					mr.order = append(mr.order, pendingKeys...)
					if cs.Len() == 0 {
						continue
					}
					if _, err := p.Apply(&cs); err != nil {
						t.Fatal(err)
					}
				case r < 0.60 || len(mr.order) == 0:
					tp := randomTuple()
					key, _, err := p.Insert(tp)
					if err != nil {
						t.Fatal(err)
					}
					mr.m[key] = tp.Clone()
					mr.order = append(mr.order, key)
					nextKey = key + 1
				case r < 0.80:
					key := mr.order[rng.Intn(len(mr.order))]
					ai := rng.Intn(cfg.schema.Len())
					val := cfg.pools[ai][rng.Intn(len(cfg.pools[ai]))]
					if _, err := p.Update(key, cfg.schema.Attrs[ai].Name, val); err != nil {
						t.Fatal(err)
					}
					mr.m[key][ai] = val
				default:
					key := mr.order[rng.Intn(len(mr.order))]
					if _, err := p.Delete(key); err != nil {
						t.Fatal(err)
					}
					mr.delete(key)
				}
				bounds = append(bounds, mark())
				if syncsLeft > 0 && rng.Float64() < 0.1 {
					syncsLeft--
					_, _ = f.Sync(ctx) // may die mid-stream: that's the point
				}
			}
			_, _ = f.Sync(ctx) // drain whatever budget remains

			// Kill the primary, promote the follower.
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			if err := f.Promote(); err != nil {
				t.Fatal(err)
			}
			fm := f.Monitor()
			st := f.Status()

			// (1) The promoted cursor is an exact record boundary.
			var at *boundary
			for i := range bounds {
				if bounds[i].seq == st.Seq && bounds[i].size == st.Offset {
					at = &bounds[i]
				}
			}
			if at == nil {
				t.Fatalf("promoted cursor (%d,%d) is not a record boundary (budget %d)", st.Seq, st.Offset, budget)
			}

			// (2) The promoted state is exactly that boundary's prefix,
			// and internally consistent against the batch detector.
			if fm.Len() != at.rel.Len() {
				t.Fatalf("promoted node has %d tuples, boundary has %d", fm.Len(), at.rel.Len())
			}
			want := oracleState(t, at.rel, cfg.sigma, at.keys)
			if got := fm.Violations(); !got.Equal(want) {
				t.Fatalf("promoted violations diverge from oracle prefix:\ngot:\n%s\nwant:\n%s", describe(got), describe(want))
			}
			self := oracleState(t, fm.Snapshot(), cfg.sigma, fm.Keys())
			if got := fm.Violations(); !got.Equal(self) {
				t.Fatalf("promoted live set diverges from batch detector:\ngot:\n%s\nwant:\n%s", describe(got), describe(self))
			}

			// (3) The promoted node serves writes; the oracle keeps
			// agreeing over the continued stream.
			pmr := &mirror{m: make(map[int64]relation.Tuple)}
			for i, k := range at.keys {
				pmr.m[k] = at.rel.Tuples[i].Clone()
				pmr.order = append(pmr.order, k)
			}
			for i := 0; i < 15; i++ {
				if len(pmr.order) == 0 || rng.Float64() < 0.5 {
					tp := randomTuple()
					key, _, err := fm.Insert(tp)
					if err != nil {
						t.Fatalf("promoted write %d: %v", i, err)
					}
					pmr.m[key] = tp.Clone()
					pmr.order = append(pmr.order, key)
				} else {
					key := pmr.order[rng.Intn(len(pmr.order))]
					ai := rng.Intn(cfg.schema.Len())
					val := cfg.pools[ai][rng.Intn(len(cfg.pools[ai]))]
					if _, err := fm.Update(key, cfg.schema.Attrs[ai].Name, val); err != nil {
						t.Fatalf("promoted update %d: %v", i, err)
					}
					pmr.m[key][ai] = val
				}
			}
			prel, pkeys := pmr.relation(cfg.schema)
			pwant := oracleState(t, prel, cfg.sigma, pkeys)
			if got := fm.Violations(); !got.Equal(pwant) {
				t.Fatalf("post-promotion stream diverges from oracle:\ngot:\n%s\nwant:\n%s", describe(got), describe(pwant))
			}
			if err := fm.Close(); err != nil {
				t.Fatal(err)
			}
			f.Close()
		})
	}
}
