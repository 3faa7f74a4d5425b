package incremental_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/incremental"
	"repro/internal/relation"
)

// TestPromotionBumpsEpochDurably: promoting a follower journals a fresh
// epoch before the gate lifts, the epoch survives restart (log replay)
// and snapshot rolls, and chains across successive promotions.
func TestPromotionBumpsEpochDurably(t *testing.T) {
	p, f, _, fdir := followerFixture(t, incremental.Options{RetainSegments: 4})
	defer p.Close()
	ctx := context.Background()

	if _, err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if got := f.Monitor().Epoch(); got != 0 {
		t.Fatalf("follower epoch before promotion = %d, want 0", got)
	}
	if err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	m1 := f.Monitor()
	if got := m1.Epoch(); got != 1 {
		t.Fatalf("promoted epoch = %d, want 1", got)
	}
	if p.Epoch() != 0 {
		t.Fatalf("old primary epoch = %d, want 0", p.Epoch())
	}
	// The promoted node accepts writes, and a second Promote is a no-op.
	if _, err := m1.Update(0, "CT", "XX"); err != nil {
		t.Fatal(err)
	}
	if err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	if got := m1.Epoch(); got != 1 {
		t.Fatalf("epoch after repeated Promote = %d, want 1", got)
	}

	// Restart from the directory alone: the epoch record replays.
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := incremental.Open(m1.Sigma(), incremental.Options{Durable: fdir})
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.Epoch(); got != 1 {
		t.Fatalf("recovered epoch = %d, want 1", got)
	}
	// A snapshot roll carries the epoch into the image; restart again.
	if err := m2.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	m3, err := incremental.Open(m1.Sigma(), incremental.Options{Durable: fdir})
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	if got := m3.Epoch(); got != 1 {
		t.Fatalf("epoch recovered from snapshot = %d, want 1", got)
	}

	// A follower of the promoted node inherits the epoch and a further
	// promotion moves past it.
	f2, err := incremental.NewFollower(ctx, m1.Sigma(),
		incremental.Options{Durable: t.TempDir()},
		incremental.FollowOptions{Source: incremental.NewMonitorSource(m3)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if got := f2.Monitor().Epoch(); got != 1 {
		t.Fatalf("second-generation follower epoch = %d, want 1", got)
	}
	if err := f2.Promote(); err != nil {
		t.Fatal(err)
	}
	defer f2.Monitor().Close()
	if got := f2.Monitor().Epoch(); got != 2 {
		t.Fatalf("second promotion epoch = %d, want 2", got)
	}
}

// TestFencedAppendsRefused: a deposed primary that learns of the higher
// epoch — from a routed write's stamp — latches Fenced and refuses every
// further mutation, while stamped writes at the current epoch pass.
func TestFencedAppendsRefused(t *testing.T) {
	rel, sigma := custFixture(t)
	p, err := incremental.Load(rel, sigma, incremental.Options{Durable: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Stamped at the node's own epoch: a plain apply.
	var cs incremental.ChangeSet
	cs.Update(0, "CT", "MH")
	if _, err := p.ApplyAt(&cs, 0); err != nil {
		t.Fatal(err)
	}
	// A stale stamp (below the node's epoch) is the caller's problem,
	// not the node's: refused, but the node stays writable.
	var cs2 incremental.ChangeSet
	cs2.Update(0, "CT", "NYC")
	// Fence at the node's own epoch first — a no-op.
	p.Fence(0)
	if p.Fenced() {
		t.Fatal("Fence at own epoch must not fence the node")
	}
	// A higher stamp proves a promotion happened elsewhere: the node
	// fences itself off the very write that would have forked it.
	if _, err := p.ApplyAt(&cs2, 1); !errors.Is(err, incremental.ErrFenced) {
		t.Fatalf("ApplyAt(epoch 1) error = %v, want ErrFenced", err)
	}
	if !p.Fenced() {
		t.Fatal("node did not latch Fenced after a higher-epoch stamp")
	}
	if _, err := p.Apply(&cs2); !errors.Is(err, incremental.ErrFenced) {
		t.Fatalf("Apply on fenced node error = %v, want ErrFenced", err)
	}
	if _, _, err := p.Insert(relation.Tuple{"01", "908", "1111111", "X", "Y", "Z", "0"}); !errors.Is(err, incremental.ErrFenced) {
		t.Fatalf("Insert on fenced node error = %v, want ErrFenced", err)
	}
	// Stale stamps now refuse too, without disturbing the latch.
	if _, err := p.ApplyAt(&cs2, 0); !errors.Is(err, incremental.ErrFenced) {
		t.Fatalf("ApplyAt(stale epoch) error = %v, want ErrFenced", err)
	}
}

// TestFollowerRefusesDeposedSource: after a failover, both the new
// primary and the partitioned old one can serve byte-valid chunks for
// the same generation numbers — only the epoch tells the histories
// apart. A follower that served the new history must refuse the old
// one's stream with ErrFenced (permanently: Run returns, never retries
// or auto-promotes).
func TestFollowerRefusesDeposedSource(t *testing.T) {
	p, fA, _, _ := followerFixture(t, incremental.Options{RetainSegments: 4})
	defer p.Close()
	ctx := context.Background()

	// Failover: fA becomes the epoch-1 primary and rolls a snapshot, so
	// its image carries the epoch.
	if _, err := fA.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if err := fA.Promote(); err != nil {
		t.Fatal(err)
	}
	mA := fA.Monitor()
	defer mA.Close()
	if _, err := mA.Update(1, "CT", "XX"); err != nil {
		t.Fatal(err)
	}
	if err := mA.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}

	// The partitioned old primary never learned: it keeps writing its
	// own fork and rolls to the same generation number.
	if _, err := p.Update(1, "CT", "YY"); err != nil {
		t.Fatal(err)
	}
	if err := p.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}

	// A standby seeded from the new primary holds epoch 1.
	fbDir := t.TempDir()
	fB, err := incremental.NewFollower(ctx, mA.Sigma(),
		incremental.Options{Durable: fbDir},
		incremental.FollowOptions{Source: incremental.NewMonitorSource(mA)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fB.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if got := fB.Monitor().Epoch(); got != 1 {
		t.Fatalf("standby epoch = %d, want 1", got)
	}
	if err := fB.Close(); err != nil {
		t.Fatal(err)
	}

	// Mis-pointed at the deposed primary (a flapping load balancer, a
	// stale config): generations line up, the chunk fetch succeeds — and
	// the epoch check refuses it before one forked byte applies.
	fB2, err := incremental.NewFollower(ctx, mA.Sigma(),
		incremental.Options{Durable: fbDir},
		incremental.FollowOptions{Source: incremental.NewMonitorSource(p)})
	if err != nil {
		t.Fatal(err)
	}
	defer fB2.Close()
	before := fB2.Monitor().Len()
	if _, err := fB2.Sync(ctx); !errors.Is(err, incremental.ErrFenced) {
		t.Fatalf("Sync against deposed primary error = %v, want ErrFenced", err)
	}
	if err := fB2.Run(ctx); !errors.Is(err, incremental.ErrFenced) {
		t.Fatalf("Run against deposed primary error = %v, want ErrFenced", err)
	}
	if got := fB2.Monitor().Len(); got != before {
		t.Fatalf("fenced follower applied records: %d tuples, had %d", got, before)
	}
	if st := fB2.Status(); st.LastError == "" {
		t.Fatal("fenced follower reports no LastError")
	}
}

// TestInsertKeyed: caller-chosen keys apply, collide loudly, advance the
// allocator, and survive journal replay.
func TestInsertKeyed(t *testing.T) {
	rel, sigma := custFixture(t)
	dir := t.TempDir()
	m, err := incremental.Load(rel, sigma, incremental.Options{Durable: dir})
	if err != nil {
		t.Fatal(err)
	}
	tup := relation.Tuple{"01", "908", "1111111", "Eve", "Tree Ave.", "NYC", "07974"}

	var cs incremental.ChangeSet
	cs.InsertKeyed(100, tup)
	if _, err := m.Apply(&cs); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get(100); !ok {
		t.Fatal("keyed insert did not land at key 100")
	}
	if got := m.NextKey(); got != 101 {
		t.Fatalf("NextKey after keyed insert = %d, want 101", got)
	}
	// The allocator now hands out keys past the keyed one.
	k, _, err := m.Insert(tup)
	if err != nil {
		t.Fatal(err)
	}
	if k != 101 {
		t.Fatalf("allocator key after keyed insert = %d, want 101", k)
	}

	// A colliding keyed insert rejects the batch — silent overwrite
	// would corrupt the size and index bookkeeping.
	var dup incremental.ChangeSet
	dup.InsertKeyed(100, tup)
	if _, err := m.Apply(&dup); err == nil {
		t.Fatal("keyed insert onto a live key did not error")
	}
	if got := m.Len(); got != rel.Len()+2 {
		t.Fatalf("Len after rejected duplicate = %d, want %d", got, rel.Len()+2)
	}
	// ... but a batch that deletes the holder first is fine (vector
	// order), and a negative key never validates.
	var swap incremental.ChangeSet
	swap.Delete(100).InsertKeyed(100, tup)
	if _, err := m.Apply(&swap); err != nil {
		t.Fatalf("delete-then-reinsert at one key: %v", err)
	}
	var neg incremental.ChangeSet
	neg.InsertKeyed(-1, tup)
	if _, err := m.Apply(&neg); err == nil {
		t.Fatal("negative keyed insert did not error")
	}

	// Replay: the keyed rows and the allocator position survive restart.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := incremental.Open(sigma, incremental.Options{Durable: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if _, ok := m2.Get(100); !ok {
		t.Fatal("keyed insert lost on replay")
	}
	if got := m2.NextKey(); got != 102 {
		t.Fatalf("NextKey after replay = %d, want 102", got)
	}
}

// TestInsertKeyedGroupCommit: the commit-window validation rejects a
// keyed collision inside the window without failing its cohabitants.
func TestInsertKeyedGroupCommit(t *testing.T) {
	rel, sigma := custFixture(t)
	m, err := incremental.Load(rel, sigma, incremental.Options{
		Durable: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	tup := relation.Tuple{"01", "908", "1111111", "Eve", "Tree Ave.", "NYC", "07974"}

	var cs incremental.ChangeSet
	cs.InsertKeyed(200, tup)
	if _, err := m.Apply(&cs); err != nil {
		t.Fatal(err)
	}
	var dup incremental.ChangeSet
	dup.InsertKeyed(200, tup)
	if _, err := m.Apply(&dup); err == nil {
		t.Fatal("keyed collision accepted through the commit window")
	}
	var ok incremental.ChangeSet
	ok.InsertKeyed(201, tup)
	if _, err := m.Apply(&ok); err != nil {
		t.Fatal(err)
	}
	if _, found := m.Get(201); !found {
		t.Fatal("keyed insert after rejected collision did not land")
	}
}
