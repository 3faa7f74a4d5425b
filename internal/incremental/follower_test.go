package incremental_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/incremental"
	"repro/internal/relation"
	"repro/internal/wal"
)

// followerFixture builds a durable primary seeded with the Figure 1
// instance and a follower synced to it over the in-process ChunkSource.
func followerFixture(t *testing.T, popts incremental.Options) (p *incremental.Monitor, f *incremental.Follower, pdir, fdir string) {
	t.Helper()
	rel, sigma := custFixture(t)
	pdir, fdir = t.TempDir(), t.TempDir()
	popts.Durable = pdir
	p, err := incremental.Load(rel, sigma, popts)
	if err != nil {
		t.Fatal(err)
	}
	f, err = incremental.NewFollower(context.Background(), sigma,
		incremental.Options{Durable: fdir},
		incremental.FollowOptions{Source: incremental.NewMonitorSource(p)})
	if err != nil {
		t.Fatal(err)
	}
	return p, f, pdir, fdir
}

// sameState fails unless the follower's monitor mirrors the primary's
// live state exactly: tuples, violation set, and batch-detector
// consistency of its own snapshot.
func sameState(t *testing.T, p, f *incremental.Monitor) {
	t.Helper()
	if f.Len() != p.Len() {
		t.Fatalf("follower has %d tuples, primary %d", f.Len(), p.Len())
	}
	for _, k := range p.Keys() {
		pt, _ := p.Get(k)
		ft, ok := f.Get(k)
		if !ok || !ft.Equal(pt) {
			t.Fatalf("tuple %d: follower %v, primary %v", k, ft, pt)
		}
	}
	if got, want := f.Violations(), p.Violations(); !got.Equal(want) {
		t.Fatalf("follower violations diverge:\ngot:\n%s\nwant:\n%s", describe(got), describe(want))
	}
	oracle := oracleState(t, f.Snapshot(), f.Sigma(), f.Keys())
	if got := f.Violations(); !got.Equal(oracle) {
		t.Fatalf("follower live set diverges from batch detector:\ngot:\n%s\nwant:\n%s", describe(got), describe(oracle))
	}
}

func TestFollowerTailsPrimary(t *testing.T) {
	p, f, _, fdir := followerFixture(t, incremental.Options{RetainSegments: 4})
	defer p.Close()
	defer f.Close()
	ctx := context.Background()

	if _, err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	fm := f.Monitor()
	if !fm.ReadOnly() {
		t.Fatal("follower monitor is not read-only")
	}
	sameState(t, p, fm)

	// Writes land on the primary, ship on Sync.
	if _, _, err := p.Insert(relation.Tuple{"01", "908", "1111111", "Eve", "Tree Ave.", "NYC", "07974"}); err != nil {
		t.Fatal(err)
	}
	var cs incremental.ChangeSet
	cs.Update(0, "CT", "MH").Update(1, "CT", "MH").Delete(3)
	if _, err := p.Apply(&cs); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	sameState(t, p, fm)
	st := f.Status()
	if !st.Following || st.Promoted {
		t.Fatalf("status = %+v, want following", st)
	}
	if st.LagBytes != 0 || st.LagSegments != 0 {
		t.Fatalf("caught-up follower reports lag: %+v", st)
	}

	// The primary rolls a generation; the follower mirrors it: same
	// segment number locally, state carried across the boundary.
	if err := p.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Update(2, "CT", "LA"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	sameState(t, p, fm)
	pgen := p.JournalStats().Generation
	if got := fm.JournalStats().Generation; got != pgen {
		t.Fatalf("follower generation %d, primary %d", got, pgen)
	}
	snaps, logs, err := wal.Generations(fdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 || snaps[len(snaps)-1] != pgen || len(logs) == 0 || logs[len(logs)-1] != pgen {
		t.Fatalf("follower dir generations snaps=%v logs=%v, want tail %d", snaps, logs, pgen)
	}

	// Mutations and snapshot rolls are refused while following.
	if _, _, err := fm.Insert(relation.Tuple{"01", "908", "1111111", "X", "Y", "Z", "0"}); !errors.Is(err, incremental.ErrReadOnly) {
		t.Fatalf("follower insert error = %v, want ErrReadOnly", err)
	}
	if _, err := fm.Update(0, "CT", "XX"); !errors.Is(err, incremental.ErrReadOnly) {
		t.Fatalf("follower update error = %v, want ErrReadOnly", err)
	}
	if err := fm.ForceSnapshot(); !errors.Is(err, incremental.ErrReadOnly) {
		t.Fatalf("follower ForceSnapshot error = %v, want ErrReadOnly", err)
	}
}

// TestFollowerRestartResumes: a restarted follower recovers from its own
// snapshot + log tail and resumes the stream at its local cursor
// instead of re-seeding from the primary.
func TestFollowerRestartResumes(t *testing.T) {
	p, f, _, fdir := followerFixture(t, incremental.Options{RetainSegments: 4})
	defer p.Close()
	ctx := context.Background()
	if _, err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// The primary moves on while the follower is down.
	for i := 0; i < 10; i++ {
		if _, err := p.Update(int64(i%3), "CT", fmt.Sprintf("C%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	f2, err := incremental.NewFollower(ctx, p.Sigma(),
		incremental.Options{Durable: fdir},
		incremental.FollowOptions{Source: incremental.NewMonitorSource(p)})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if !f2.Monitor().Recovered() {
		t.Fatal("restarted follower did not recover local state")
	}
	applied, err := f2.Sync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Only the tail ships: local recovery covered everything before it.
	if applied != 10 {
		t.Fatalf("restart applied %d records, want the 10-record tail", applied)
	}
	sameState(t, p, f2.Monitor())
}

// TestFollowerResync: a cursor below the primary's retention window is
// unrecoverable from the tail — Sync reports ErrSegmentGone and a
// Resync rebuild re-seeds from the current snapshot.
func TestFollowerResync(t *testing.T) {
	p, f, _, fdir := followerFixture(t, incremental.Options{}) // retain nothing
	defer p.Close()
	ctx := context.Background()
	if _, err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Two rolls with zero retention: the follower's segment is gone.
	for i := 0; i < 2; i++ {
		if _, err := p.Update(int64(i), "CT", fmt.Sprintf("R%d", i)); err != nil {
			t.Fatal(err)
		}
		if err := p.ForceSnapshot(); err != nil {
			t.Fatal(err)
		}
	}

	f2, err := incremental.NewFollower(ctx, p.Sigma(),
		incremental.Options{Durable: fdir},
		incremental.FollowOptions{Source: incremental.NewMonitorSource(p)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Sync(ctx); !errors.Is(err, incremental.ErrSegmentGone) {
		t.Fatalf("stale cursor Sync error = %v, want ErrSegmentGone", err)
	}
	if err := f2.Close(); err != nil {
		t.Fatal(err)
	}

	f3, err := incremental.NewFollower(ctx, p.Sigma(),
		incremental.Options{Durable: fdir},
		incremental.FollowOptions{Source: incremental.NewMonitorSource(p), Resync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f3.Close()
	if _, err := f3.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	sameState(t, p, f3.Monitor())
}

// TestFollowerPromote: promotion flips the monitor writable at the
// applied boundary; the promoted node journals its own writes and a
// restart of its directory recovers them.
func TestFollowerPromote(t *testing.T) {
	p, f, _, fdir := followerFixture(t, incremental.Options{RetainSegments: 4})
	ctx := context.Background()
	if _, err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	// Primary dies.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	fm := f.Monitor()
	if fm.ReadOnly() {
		t.Fatal("promoted monitor still read-only")
	}
	st := f.Status()
	if st.Following || !st.Promoted {
		t.Fatalf("status after promote: %+v", st)
	}

	key, _, err := fm.Insert(relation.Tuple{"01", "908", "1111111", "Eve", "Tree Ave.", "NYC", "07974"})
	if err != nil {
		t.Fatalf("promoted node refused a write: %v", err)
	}
	if err := fm.ForceSnapshot(); err != nil {
		t.Fatalf("promoted node refused a snapshot: %v", err)
	}
	wantLen := fm.Len()
	wantState := fm.Violations()
	if err := fm.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// The promoted directory is a normal primary directory now.
	reborn, err := incremental.New(fm.Schema(), fm.Sigma(), incremental.Options{Durable: fdir})
	if err != nil {
		t.Fatal(err)
	}
	defer reborn.Close()
	if !reborn.Recovered() || reborn.Len() != wantLen {
		t.Fatalf("reborn: recovered=%v len=%d want %d", reborn.Recovered(), reborn.Len(), wantLen)
	}
	if got := reborn.Violations(); !got.Equal(wantState) {
		t.Fatalf("reborn violations diverge:\ngot:\n%s\nwant:\n%s", describe(got), describe(wantState))
	}
	if _, ok := reborn.Get(key); !ok {
		t.Fatalf("post-promotion insert %d lost across restart", key)
	}
}

// TestFollowerClosedRefusesPromote: a closed follower (its journal is
// gone — what a retention-window resync looks like from outside) must
// refuse promotion rather than acknowledge a flip that cannot serve a
// single write.
func TestFollowerClosedRefusesPromote(t *testing.T) {
	p, f, _, _ := followerFixture(t, incremental.Options{RetainSegments: 4})
	defer p.Close()
	if _, err := f.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Promote(); err == nil {
		t.Fatal("closed follower accepted a promotion")
	}
	if st := f.Status(); st.Promoted {
		t.Fatalf("closed follower reports promoted: %+v", st)
	}
}

// TestFollowerAutoPromote: with PromoteAfter set, a dead primary turns
// the follower writable from Run itself.
func TestFollowerAutoPromote(t *testing.T) {
	ctx := context.Background()
	rel, sigma := custFixture(t)
	p, err := incremental.Load(rel, sigma, incremental.Options{Durable: t.TempDir(), RetainSegments: 4})
	if err != nil {
		t.Fatal(err)
	}
	g, err := incremental.NewFollower(ctx, sigma,
		incremental.Options{Durable: t.TempDir()},
		incremental.FollowOptions{
			Source:       incremental.NewMonitorSource(p),
			PollInterval: 5 * time.Millisecond,
			PromoteAfter: 20 * time.Millisecond,
		})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil { // chunk fetches now fail
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- g.Run(ctx) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run = %v, want nil after auto-promotion", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not auto-promote")
	}
	if g.Monitor().ReadOnly() {
		t.Fatal("auto-promoted monitor still read-only")
	}
	if _, _, err := g.Monitor().Insert(relation.Tuple{"01", "908", "1111111", "Eve", "Tree Ave.", "NYC", "07974"}); err != nil {
		t.Fatalf("auto-promoted node refused a write: %v", err)
	}
	g.Monitor().Close()
	g.Close()
}

// respondingSource always errors, but wraps ErrPrimaryResponded — a
// live primary refusing the request (an HTTP 500, a bad cursor).
type respondingSource struct{ inner incremental.ChunkSource }

func (s respondingSource) Snapshot(ctx context.Context) (uint64, io.ReadCloser, error) {
	return s.inner.Snapshot(ctx)
}

func (s respondingSource) Chunk(ctx context.Context, seq uint64, offset int64, maxBytes int) (incremental.ShipChunk, error) {
	return incremental.ShipChunk{}, fmt.Errorf("primary: boom (500): %w", incremental.ErrPrimaryResponded)
}

// TestFollowerNoAutoPromoteOnLivePrimary: errors that prove the primary
// is alive (it responded) must never arm auto-promotion — promoting
// against a live primary forks history without a partition.
func TestFollowerNoAutoPromoteOnLivePrimary(t *testing.T) {
	ctx := context.Background()
	rel, sigma := custFixture(t)
	p, err := incremental.Load(rel, sigma, incremental.Options{Durable: t.TempDir(), RetainSegments: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	g, err := incremental.NewFollower(ctx, sigma,
		incremental.Options{Durable: t.TempDir()},
		incremental.FollowOptions{
			Source:       respondingSource{inner: incremental.NewMonitorSource(p)},
			PollInterval: time.Millisecond,
			PromoteAfter: 5 * time.Millisecond,
		})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	rctx, cancel := context.WithTimeout(ctx, 300*time.Millisecond)
	defer cancel()
	if err := g.Run(rctx); err != nil {
		t.Fatalf("Run = %v", err)
	}
	if st := g.Status(); st.Promoted || !g.Monitor().ReadOnly() {
		t.Fatalf("follower promoted against a responding primary: %+v", st)
	}
}

// TestFollowerConcurrentStream races a writing primary, a follower Run
// loop and follower-side readers; after the writers quiesce the follower
// must converge to the primary's exact state.
func TestFollowerConcurrentStream(t *testing.T) {
	p, f, _, _ := followerFixture(t, incremental.Options{RetainSegments: 8, SnapshotEvery: 50})
	defer p.Close()
	defer f.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var wg sync.WaitGroup
	runDone := make(chan error, 1)
	go func() { runDone <- f.Run(ctx) }()

	// Concurrent readers on the follower while it applies chunks.
	stopRead := make(chan struct{})
	var readWG sync.WaitGroup
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		for {
			select {
			case <-stopRead:
				return
			default:
				f.Monitor().Violations()
				f.Monitor().Len()
				f.Status()
			}
		}
	}()

	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				if _, err := p.Update(int64((w*2+i)%6), "CT", fmt.Sprintf("W%d-%d", w, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Let the writers finish, then quiesce.
	wgWait := make(chan struct{})
	go func() { wg.Wait(); close(wgWait) }()
	select {
	case <-wgWait:
	case <-time.After(30 * time.Second):
		t.Fatal("writers wedged")
	}
	close(stopRead)
	readWG.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := f.Sync(ctx); err != nil {
			t.Fatal(err)
		}
		st := f.Status()
		if st.LagBytes == 0 && st.LagSegments == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("Run = %v", err)
	}
	sameState(t, p, f.Monitor())
}

// TestFollowerEnvGuard keeps the soak knob honest: CFD_SOAK must parse.
func TestFollowerEnvGuard(t *testing.T) {
	if v := os.Getenv("CFD_SOAK"); v != "" && soakFactor() < 1 {
		t.Fatalf("CFD_SOAK=%q parsed to %d", v, soakFactor())
	}
}
