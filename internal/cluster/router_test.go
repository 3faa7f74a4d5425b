package cluster_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/incremental"
)

// memCluster builds K memory-backed groups and a router over them.
func memCluster(t *testing.T, k int) (*cluster.Router, map[string]*incremental.Monitor) {
	t.Helper()
	sigma := custSigma(t)
	mons := make(map[string]*incremental.Monitor, k)
	var cfgs []cluster.GroupConfig
	for i := 0; i < k; i++ {
		name := string(rune('a' + i))
		m, err := incremental.New(custSchema(), sigma, incremental.Options{})
		if err != nil {
			t.Fatal(err)
		}
		mons[name] = m
		cfgs = append(cfgs, cluster.GroupConfig{Name: name, Primary: &cluster.LocalBackend{M: m}})
	}
	rt, err := cluster.NewRouter(context.Background(), cfgs, cluster.Options{VNodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	return rt, mons
}

// TestRouterSplitAndWriteback: inserted keys are assigned by the router,
// written back into the caller's ChangeSet, and each tuple lands on the
// shard the ring names as its owner — and nowhere else.
func TestRouterSplitAndWriteback(t *testing.T) {
	rt, mons := memCluster(t, 3)
	rng := rand.New(rand.NewSource(3))
	cs := &incremental.ChangeSet{}
	const n = 64
	for i := 0; i < n; i++ {
		cs.Insert(randTuple(rng))
	}
	if _, err := rt.Apply(context.Background(), cs); err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool, n)
	for i := range cs.Ops {
		key := cs.Ops[i].Key
		if seen[key] {
			t.Fatalf("key %d assigned twice", key)
		}
		seen[key] = true
		owner := rt.Owner(key)
		for name, m := range mons {
			_, ok := m.Get(key)
			if want := name == owner; ok != want {
				t.Fatalf("key %d: present=%v on shard %s, owner is %s", key, ok, name, owner)
			}
		}
	}
	total := 0
	for _, m := range mons {
		total += m.Len()
	}
	if total != n {
		t.Fatalf("cluster holds %d tuples, inserted %d", total, n)
	}
	// A follow-up batch mixing keyed ops routes by the written-back keys.
	var anyKey int64 = cs.Ops[0].Key
	cs2 := (&incremental.ChangeSet{}).Update(anyKey, "CT", "PHI").Delete(cs.Ops[1].Key)
	if _, err := rt.Apply(context.Background(), cs2); err != nil {
		t.Fatal(err)
	}
	got, ok := mons[rt.Owner(anyKey)].Get(anyKey)
	if !ok || got[5] != "PHI" {
		t.Fatalf("update did not land on owner shard: %v %v", got, ok)
	}
	if _, ok := mons[rt.Owner(cs.Ops[1].Key)].Get(cs.Ops[1].Key); ok {
		t.Fatal("delete did not land on owner shard")
	}
}

// swapBackend is a mutable indirection: the "stable primary address"
// whose serving node changes identity when an operator promotes out of
// band (VIP re-point). The router only ever talks to the address.
type swapBackend struct {
	mu    sync.Mutex
	inner cluster.Backend
}

func (s *swapBackend) get() cluster.Backend {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner
}

func (s *swapBackend) set(b cluster.Backend) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inner = b
}

func (s *swapBackend) Apply(ctx context.Context, epoch uint64, cs *incremental.ChangeSet) (*incremental.Delta, error) {
	return s.get().Apply(ctx, epoch, cs)
}
func (s *swapBackend) Epoch(ctx context.Context) (uint64, error)   { return s.get().Epoch(ctx) }
func (s *swapBackend) NextKey(ctx context.Context) (int64, error)  { return s.get().NextKey(ctx) }
func (s *swapBackend) Promote(ctx context.Context) (uint64, error) { return s.get().Promote(ctx) }
func (s *swapBackend) Fence(ctx context.Context, epoch uint64) error {
	return s.get().Fence(ctx, epoch)
}

// TestRouterRetriesStaleEpoch: after an out-of-band promotion behind
// the primary address, the router's first write is refused as fenced,
// and it recovers by re-querying the epoch and retrying once — no
// operator intervention, no Router.Promote.
func TestRouterRetriesStaleEpoch(t *testing.T) {
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

	addr := &swapBackend{inner: &cluster.LocalBackend{M: p}}
	rt, err := cluster.NewRouter(ctx, []cluster.GroupConfig{{Name: "g", Primary: addr}}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(11))
	if _, err := rt.Apply(ctx, (&incremental.ChangeSet{}).Insert(randTuple(rng))); err != nil {
		t.Fatal(err)
	}
	for { // drain the standby, then promote it behind the router's back
		n, err := f.Sync(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	if err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	p.Fence(f.Monitor().Epoch())
	addr.set(&cluster.LocalBackend{M: f.Monitor()})

	// The router's token still says epoch 0; the write must succeed via
	// the re-query-and-retry path, on the new primary.
	cs := (&incremental.ChangeSet{}).Insert(randTuple(rng))
	if _, err := rt.Apply(ctx, cs); err != nil {
		t.Fatalf("routed write after out-of-band promotion: %v", err)
	}
	if _, ok := f.Monitor().Get(cs.Ops[0].Key); !ok {
		t.Fatal("write did not land on the promoted primary")
	}
	if got := rt.Status()[0].Epoch; got != f.Monitor().Epoch() {
		t.Fatalf("router token not refreshed: %d, node at %d", got, f.Monitor().Epoch())
	}
}
