package cluster_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/incremental"
	"repro/internal/relation"
)

// posBackend is a standby whose read position the test controls: the
// wire-level ReadBackend contract without the replication machinery.
type posBackend struct {
	epoch uint64
	lag   int64
	err   error
}

func (p *posBackend) Apply(context.Context, uint64, *incremental.ChangeSet) (*incremental.Delta, error) {
	return nil, errors.New("posBackend: read-only")
}
func (p *posBackend) Epoch(context.Context) (uint64, error)   { return p.epoch, nil }
func (p *posBackend) NextKey(context.Context) (int64, error)  { return 0, nil }
func (p *posBackend) Promote(context.Context) (uint64, error) { return 0, errors.New("no") }
func (p *posBackend) Fence(context.Context, uint64) error     { return nil }
func (p *posBackend) ReadPosition(context.Context) (cluster.ReadPosition, error) {
	if p.err != nil {
		return cluster.ReadPosition{}, p.err
	}
	return cluster.ReadPosition{Epoch: p.epoch, LagBytes: p.lag}, nil
}

// readCluster builds one group: a live in-memory primary plus the given
// standbys, with the given staleness bound. A fresh router per scenario
// keeps the 500ms read-position cache from bleeding between cases.
func readCluster(t *testing.T, maxLag int64, standbys ...cluster.Backend) (*cluster.Router, *incremental.Monitor) {
	t.Helper()
	m, err := incremental.New(custSchema(), custSigma(t), incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	rt, err := cluster.NewRouter(context.Background(), []cluster.GroupConfig{{
		Name: "g", Primary: &cluster.LocalBackend{M: m}, Standbys: standbys,
	}}, cluster.Options{MaxReadLag: maxLag})
	if err != nil {
		t.Fatal(err)
	}
	return rt, m
}

// pickSpread runs n picks and counts how many land on each backend.
func pickSpread(t *testing.T, rt *cluster.Router, mode cluster.ReadConsistency, n int) map[cluster.Backend]int {
	t.Helper()
	got := make(map[cluster.Backend]int)
	for i := 0; i < n; i++ {
		be, err := rt.PickRead(context.Background(), "g", mode)
		if err != nil {
			t.Fatal(err)
		}
		got[be]++
	}
	return got
}

func TestPickReadPrimaryOnly(t *testing.T) {
	fresh := &posBackend{epoch: 0, lag: 0}
	rt, _ := readCluster(t, 0, fresh)
	// consistency=primary never touches a standby, however fresh.
	for be, n := range pickSpread(t, rt, cluster.ReadPrimary, 8) {
		if _, ok := be.(*cluster.LocalBackend); !ok {
			t.Fatalf("ReadPrimary returned standby %T %d times", be, n)
		}
	}
}

func TestPickReadSpreadsOverFreshStandby(t *testing.T) {
	fresh := &posBackend{epoch: 0, lag: 0}
	rt, _ := readCluster(t, 0, fresh)
	got := pickSpread(t, rt, cluster.ReadAny, 8)
	if got[fresh] == 0 {
		t.Fatalf("ReadAny never used the fresh standby: %v", got)
	}
	if got[fresh] == 8 {
		t.Fatal("ReadAny never used the primary")
	}
}

func TestPickReadSkipsStaleStandby(t *testing.T) {
	cases := []struct {
		name    string
		standby *posBackend
		maxLag  int64
	}{
		{name: "lag-over-bound", standby: &posBackend{epoch: 0, lag: 1 << 30}, maxLag: 1024},
		{name: "segments-behind", standby: &posBackend{epoch: 0, lag: -1}, maxLag: 0},
		{name: "position-error", standby: &posBackend{err: errors.New("down")}, maxLag: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt, _ := readCluster(t, tc.maxLag, tc.standby)
			got := pickSpread(t, rt, cluster.ReadAny, 8)
			if got[tc.standby] != 0 {
				t.Fatalf("ReadAny used a stale standby %d of 8 times", got[tc.standby])
			}
		})
	}
}

// TestPickReadSkipsDeposedEpoch: a standby whose epoch is behind the
// group's is a leftover from before a failover; its history may diverge,
// so reads must never land there even if its byte lag looks small.
func TestPickReadSkipsDeposedEpoch(t *testing.T) {
	primary := &posBackend{epoch: 5}
	deposed := &posBackend{epoch: 4, lag: 0}
	current := &posBackend{epoch: 5, lag: 0}
	rt, err := cluster.NewRouter(context.Background(), []cluster.GroupConfig{{
		Name: "g", Primary: primary, Standbys: []cluster.Backend{deposed, current},
	}}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := pickSpread(t, rt, cluster.ReadAny, 9)
	if got[deposed] != 0 {
		t.Fatalf("ReadAny used an epoch-deposed standby %d of 9 times", got[deposed])
	}
	if got[current] == 0 {
		t.Fatalf("ReadAny never used the at-epoch standby: %v", got)
	}
}

// TestPickReadFollowerIntegration wires a real follower standby: once it
// has fully synced, consistency=any serves some reads from it and those
// reads see the replicated violations.
func TestPickReadFollowerIntegration(t *testing.T) {
	ctx := context.Background()
	sigma := custSigma(t)
	p, err := incremental.New(custSchema(), sigma, incremental.Options{Durable: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	f, err := incremental.NewFollower(ctx, sigma, incremental.Options{Durable: t.TempDir()},
		incremental.FollowOptions{Source: incremental.NewMonitorSource(p)})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	fb := &cluster.LocalBackend{F: f}
	rt, err := cluster.NewRouter(ctx, []cluster.GroupConfig{{
		Name: "g", Primary: &cluster.LocalBackend{M: p}, Standbys: []cluster.Backend{fb},
	}}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// A [CC=01, AC=215] -> [CT=PHI] constant violation on the primary.
	cs := &incremental.ChangeSet{}
	cs.Insert(relation.Tuple{"01", "215", "1111111", "Mike", "Tree Ave.", "NYC", "07974"})
	if _, err := rt.Apply(ctx, cs); err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := f.Sync(ctx); err != nil {
			t.Fatal(err)
		}
		if st := f.Status(); st.LagBytes == 0 {
			break
		}
	}

	got := pickSpread(t, rt, cluster.ReadAny, 8)
	if got[fb] == 0 {
		t.Fatalf("ReadAny never used the synced follower: %v", got)
	}
	if fb.Mon().ViolationCount() != p.ViolationCount() {
		t.Fatalf("follower read sees %d violations, primary %d", fb.Mon().ViolationCount(), p.ViolationCount())
	}
}

func TestPickReadUnknownGroup(t *testing.T) {
	rt, _ := readCluster(t, 0)
	if _, err := rt.PickRead(context.Background(), "nope", cluster.ReadAny); err == nil {
		t.Fatal("PickRead on unknown group succeeded")
	}
}

func TestParseReadConsistency(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want cluster.ReadConsistency
		ok   bool
	}{
		{"", cluster.ReadPrimary, true},
		{"primary", cluster.ReadPrimary, true},
		{"any", cluster.ReadAny, true},
		{"quorum", 0, false},
	} {
		got, err := cluster.ParseReadConsistency(tc.in)
		if tc.ok != (err == nil) || (tc.ok && got != tc.want) {
			t.Fatalf("ParseReadConsistency(%q) = %v, %v", tc.in, got, err)
		}
	}
}
