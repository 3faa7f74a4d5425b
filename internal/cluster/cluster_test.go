package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/incremental"
	"repro/internal/relation"
)

// The cluster-vs-single-node oracle property test. A Router fronts K
// shard groups (each a durable fsync-less primary plus a hot standby
// tailing its WAL) and is driven through a random mutation stream while
// followers sync concurrently. Mid-stream, one group's primary is
// KILLED (closed dead, standby promoted from whatever prefix it had
// replicated) and another group's primary is PARTITIONED (left running,
// standby promoted, old primary fenced). The invariant: at every
// checkpoint, each shard group's live state and violation set equal a
// single-node oracle monitor replaying exactly the sub-batches that
// group durably accepted — truncated, at a failover, to the promoted
// standby's replicated prefix. The deposed primaries must refuse
// writes with ErrFenced, both direct and stamped with their stale
// epoch: a partition cannot yield two writable histories.

// soakFactor scales the randomized rounds; nightly CI sets CFD_SOAK.
func soakFactor() int {
	if s := os.Getenv("CFD_SOAK"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 1
}

func custSchema() *relation.Schema {
	return relation.MustSchema("cust",
		relation.Attr("CC"), relation.Attr("AC"), relation.Attr("PN"),
		relation.Attr("NM"), relation.Attr("STR"), relation.Attr("CT"), relation.Attr("ZIP"))
}

func custSigma(t testing.TB) []*core.CFD {
	t.Helper()
	sigma, err := core.ParseSet(`
[CC=44, ZIP] -> [STR]
[CC, AC, PN] -> [STR, CT, ZIP]
[CC=01, AC=212, PN] -> [STR, CT=NYC, ZIP]
[CC, AC] -> [CT]
[CC=01, AC=215] -> [CT=PHI]
`)
	if err != nil {
		t.Fatal(err)
	}
	return sigma
}

// randTuple draws from small value pools so conflicting pairs (shared
// CC/AC/PN with differing right-hand sides) appear constantly.
func randTuple(rng *rand.Rand) relation.Tuple {
	pick := func(vals ...string) string { return vals[rng.Intn(len(vals))] }
	return relation.Tuple{
		pick("01", "44"),
		pick("908", "212", "215", "131"),
		pick("1111111", "2222222", "3333333"),
		fmt.Sprintf("N%d", rng.Intn(6)),
		pick("Tree Ave.", "Elm Str.", "Oak Ave.", "High St."),
		pick("NYC", "PHI", "MH", "EDI"),
		pick("07974", "01202", "02404", "EH4 1DT"),
	}
}

// cloneCS rebuilds a ChangeSet from its exported fields: a fresh,
// never-applied copy safe to replay on another monitor.
func cloneCS(cs *incremental.ChangeSet) *incremental.ChangeSet {
	out := &incremental.ChangeSet{}
	for i := range cs.Ops {
		op := &cs.Ops[i]
		switch op.Kind {
		case incremental.OpInsert:
			out.InsertKeyed(op.Key, append(relation.Tuple(nil), op.Tuple...))
		case incremental.OpDelete:
			out.Delete(op.Key)
		case incremental.OpUpdate:
			out.Update(op.Key, op.Attr, op.Value)
		}
	}
	return out
}

// splitByOwner mirrors the router's partition of a key-resolved
// ChangeSet (every insert already carries its assigned key).
func splitByOwner(rt *cluster.Router, cs *incremental.ChangeSet) map[string]*incremental.ChangeSet {
	sub := make(map[string]*incremental.ChangeSet)
	for i := range cs.Ops {
		op := &cs.Ops[i]
		owner := rt.Owner(op.Key)
		scs := sub[owner]
		if scs == nil {
			scs = &incremental.ChangeSet{}
			sub[owner] = scs
		}
		switch op.Kind {
		case incremental.OpInsert:
			scs.InsertKeyed(op.Key, op.Tuple)
		case incremental.OpDelete:
			scs.Delete(op.Key)
		case incremental.OpUpdate:
			scs.Update(op.Key, op.Attr, op.Value)
		}
	}
	return sub
}

// testGroup is one shard group plus its oracle bookkeeping.
type testGroup struct {
	name     string
	primary  *incremental.Monitor
	old      *incremental.Monitor // deposed primary after a failover event
	follower *incremental.Follower
	accepted []*incremental.ChangeSet // durably accepted sub-batches, in order
	oracle   *incremental.Monitor     // memory monitor in lockstep with accepted
	stop     chan struct{}
	done     chan struct{}
	promoted bool
}

// replayOracle builds a fresh single-node oracle from an accepted-batch
// prefix.
func replayOracle(t *testing.T, sigma []*core.CFD, accepted []*incremental.ChangeSet) *incremental.Monitor {
	t.Helper()
	m, err := incremental.New(custSchema(), sigma, incremental.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, cs := range accepted {
		if _, err := m.Apply(cloneCS(cs)); err != nil {
			t.Fatalf("oracle replay batch %d: %v", i, err)
		}
	}
	return m
}

// checkGroup compares a group's primary against its oracle: size, key
// set, per-key tuples, violation state — and, when deep is set, the
// batch Direct detector over the primary's own image.
func checkGroup(t *testing.T, g *testGroup, deep bool) {
	t.Helper()
	p, o := g.primary, g.oracle
	if p.Len() != o.Len() {
		t.Fatalf("group %s: cluster holds %d tuples, oracle %d", g.name, p.Len(), o.Len())
	}
	keys := p.Keys()
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	okeys := o.Keys()
	sort.Slice(okeys, func(i, j int) bool { return okeys[i] < okeys[j] })
	for i, k := range keys {
		if okeys[i] != k {
			t.Fatalf("group %s: key set diverges at %d: cluster %d, oracle %d", g.name, i, k, okeys[i])
		}
		pt, _ := p.Get(k)
		ot, _ := o.Get(k)
		if len(pt) != len(ot) {
			t.Fatalf("group %s key %d: arity %d vs %d", g.name, k, len(pt), len(ot))
		}
		for a := range pt {
			if pt[a] != ot[a] {
				t.Fatalf("group %s key %d attr %d: %q vs %q", g.name, k, a, pt[a], ot[a])
			}
		}
	}
	if !p.Violations().Equal(o.Violations()) {
		t.Fatalf("group %s: violation state diverges from single-node oracle", g.name)
	}
	if !deep {
		return
	}
	// Belt and braces: the batch Direct detector over the shard's image.
	rel := relation.New(custSchema())
	for _, k := range keys {
		tp, _ := p.Get(k)
		if err := rel.Insert(tp); err != nil {
			t.Fatal(err)
		}
	}
	res, err := detect.Detect(rel, custSigma(t), detect.Options{Strategy: detect.Direct})
	if err != nil {
		t.Fatal(err)
	}
	want := &incremental.State{PerCFD: make([]incremental.CFDViolations, len(res.PerCFD))}
	for i, v := range res.PerCFD {
		for _, row := range v.ConstTuples {
			want.PerCFD[i].ConstTuples = append(want.PerCFD[i].ConstTuples, keys[row])
		}
		for _, k := range v.VariableKeys {
			want.PerCFD[i].VariableKeys = append(want.PerCFD[i].VariableKeys, append([]relation.Value(nil), k...))
		}
	}
	if !p.Violations().Equal(want) {
		t.Fatalf("group %s: violation state diverges from batch Direct detector", g.name)
	}
}

// assertFenced: a deposed primary refuses writes — direct, and stamped
// with the stale epoch it was deposed at.
func assertFenced(t *testing.T, m *incremental.Monitor, staleEpoch uint64, rng *rand.Rand) {
	t.Helper()
	if !m.Fenced() {
		t.Fatal("deposed primary does not report Fenced()")
	}
	cs := (&incremental.ChangeSet{}).Insert(randTuple(rng))
	if _, err := m.Apply(cs); !errors.Is(err, incremental.ErrFenced) {
		t.Fatalf("deposed primary accepted a direct write: err=%v", err)
	}
	cs = (&incremental.ChangeSet{}).Insert(randTuple(rng))
	if _, err := m.ApplyAt(cs, staleEpoch); !errors.Is(err, incremental.ErrFenced) {
		t.Fatalf("deposed primary accepted a stale-epoch write: err=%v", err)
	}
}

func TestClusterMatchesOracleUnderFailover(t *testing.T) {
	seed := time.Now().UnixNano()
	if s := os.Getenv("CFD_SEED"); s != "" {
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			seed = n
		}
	}
	t.Logf("seed %d (re-run with CFD_SEED=%d)", seed, seed)
	rng := rand.New(rand.NewSource(seed))

	ctx := context.Background()
	sigma := custSigma(t)
	names := []string{"g0", "g1", "g2"}
	groups := make(map[string]*testGroup, len(names))
	var cfgs []cluster.GroupConfig
	for _, name := range names {
		p, err := incremental.New(custSchema(), sigma, incremental.Options{
			Durable: t.TempDir(), RetainSegments: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		f, err := incremental.NewFollower(ctx, sigma, incremental.Options{
			Durable: t.TempDir(),
		}, incremental.FollowOptions{Source: incremental.NewMonitorSource(p)})
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := incremental.New(custSchema(), sigma, incremental.Options{})
		if err != nil {
			t.Fatal(err)
		}
		g := &testGroup{
			name: name, primary: p, follower: f, oracle: oracle,
			stop: make(chan struct{}), done: make(chan struct{}),
		}
		groups[name] = g
		cfgs = append(cfgs, cluster.GroupConfig{
			Name:     name,
			Primary:  &cluster.LocalBackend{M: p},
			Standbys: []cluster.Backend{&cluster.LocalBackend{F: f}},
		})
	}
	defer func() {
		for _, g := range groups {
			_ = g.follower.Close()
			_ = g.primary.Close()
			if g.old != nil {
				_ = g.old.Close()
			}
		}
	}()

	rt, err := cluster.NewRouter(ctx, cfgs, cluster.Options{VNodes: 32})
	if err != nil {
		t.Fatal(err)
	}

	// Followers tail concurrently with routed writes (the race the WAL
	// shipping protocol must survive), plus concurrent readers.
	var readers sync.WaitGroup
	stopRead := make(chan struct{})
	for _, g := range groups {
		g := g
		go func() {
			defer close(g.done)
			for {
				select {
				case <-g.stop:
					return
				default:
				}
				_, _ = g.follower.Sync(ctx)
				time.Sleep(500 * time.Microsecond)
			}
		}()
		readers.Add(1)
		// Pin the boot-time primary: failover swaps g.primary, and the
		// reader's point is concurrent reads against a node taking writes
		// (reads on a deposed monitor stay valid — its memory image lives).
		go func(p *incremental.Monitor) {
			defer readers.Done()
			for {
				select {
				case <-stopRead:
					return
				default:
				}
				_ = p.Violations()
				_ = p.Len()
				time.Sleep(time.Millisecond)
			}
		}(g.primary)
	}
	defer func() {
		close(stopRead)
		readers.Wait()
		for _, g := range groups {
			select {
			case <-g.done:
			default:
				close(g.stop)
				<-g.done
			}
		}
	}()

	stopSyncer := func(g *testGroup) {
		close(g.stop)
		<-g.done
	}

	// Live keys across the cluster, for generating updates and deletes.
	liveSet := make(map[int64]bool)
	var liveKeys []int64
	compactLive := func() {
		out := liveKeys[:0]
		for _, k := range liveKeys {
			if liveSet[k] {
				out = append(out, k)
			}
		}
		liveKeys = out
	}
	randLive := func(used map[int64]bool) (int64, bool) {
		for tries := 0; tries < 32 && len(liveKeys) > 0; tries++ {
			k := liveKeys[rng.Intn(len(liveKeys))]
			if liveSet[k] && !used[k] {
				return k, true
			}
		}
		compactLive()
		for _, k := range liveKeys {
			if !used[k] {
				return k, true
			}
		}
		return 0, false
	}
	// dropGroupKeys rewinds the live-key view of one group to its
	// promoted primary's actual key set (a failover may lose the tail).
	dropGroupKeys := func(g *testGroup) {
		for k := range liveSet {
			if rt.Owner(k) == g.name {
				delete(liveSet, k)
			}
		}
		for _, k := range g.primary.Keys() {
			liveSet[k] = true
		}
		liveKeys = liveKeys[:0]
		for k := range liveSet {
			liveKeys = append(liveKeys, k)
		}
	}

	// accept records one committed sub-batch: oracle lockstep + live keys.
	accept := func(g *testGroup, sub *incremental.ChangeSet) *incremental.Delta {
		g.accepted = append(g.accepted, sub)
		od, err := g.oracle.Apply(cloneCS(sub))
		if err != nil {
			t.Fatalf("group %s: oracle rejects an accepted sub-batch: %v", g.name, err)
		}
		for i := range sub.Ops {
			op := &sub.Ops[i]
			switch op.Kind {
			case incremental.OpInsert:
				if !liveSet[op.Key] {
					liveSet[op.Key] = true
					liveKeys = append(liveKeys, op.Key)
				}
			case incremental.OpDelete:
				delete(liveSet, op.Key)
			}
		}
		return od
	}

	failover := func(g *testGroup, kill bool) {
		stopSyncer(g)
		if kill {
			// Dead primary: close it, then show the router surfaces the
			// failed group while others keep committing.
			if err := g.primary.Close(); err != nil {
				t.Fatal(err)
			}
			if used := map[int64]bool{}; len(liveKeys) > 0 {
				if key, ok := randLive(used); ok && rt.Owner(key) == g.name {
					cs := (&incremental.ChangeSet{}).Update(key, "NM", "X")
					_, err := rt.Apply(ctx, cs)
					var ae *cluster.ApplyError
					if !errors.As(err, &ae) || ae.Failed[g.name] == nil {
						t.Fatalf("routed write to dead group %s: err=%v, want ApplyError naming it", g.name, err)
					}
				}
			}
		} else {
			// Partition: primary stays up; drain the follower fully first
			// so this failover is lossless (the kill path exercises loss).
			for {
				n, err := g.follower.Sync(ctx)
				if err != nil {
					t.Fatalf("group %s: final sync: %v", g.name, err)
				}
				if n == 0 {
					break
				}
			}
		}
		staleEpoch := g.primary.Epoch()
		epoch, err := rt.Promote(ctx, g.name)
		if err != nil {
			t.Fatalf("promoting group %s: %v", g.name, err)
		}
		if epoch == staleEpoch {
			t.Fatalf("promotion of group %s did not bump the epoch (%d)", g.name, epoch)
		}
		applied := int(g.follower.Status().AppliedRecords)
		if applied > len(g.accepted) {
			t.Fatalf("group %s: follower applied %d records but only %d batches were accepted", g.name, applied, len(g.accepted))
		}
		if !kill && applied != len(g.accepted) {
			t.Fatalf("group %s: fully drained follower applied %d of %d accepted batches", g.name, applied, len(g.accepted))
		}
		g.accepted = g.accepted[:applied]
		g.old = g.primary
		g.primary = g.follower.Monitor()
		g.promoted = true
		g.oracle = replayOracle(t, sigma, g.accepted)
		dropGroupKeys(g)
		// The acceptance criterion itself: a fenced deposed primary
		// refuses writes, so no partition yields two writable histories.
		assertFenced(t, g.old, staleEpoch, rng)
	}

	rounds := 60 * soakFactor()
	killRound := rounds/4 + rng.Intn(rounds/4)
	partRound := rounds/2 + rng.Intn(rounds/4)
	killGroup := names[rng.Intn(len(names))]
	partGroup := names[rng.Intn(len(names))]
	for partGroup == killGroup {
		partGroup = names[rng.Intn(len(names))]
	}

	attrs := []struct {
		name string
		vals []string
	}{
		{"NM", []string{"N0", "N1", "N2"}},
		{"STR", []string{"Tree Ave.", "Elm Str.", "Oak Ave."}},
		{"CT", []string{"NYC", "PHI", "MH", "EDI"}},
		{"ZIP", []string{"07974", "01202", "02404"}},
		{"AC", []string{"908", "212", "215"}},
	}

	for round := 0; round < rounds; round++ {
		if round == killRound {
			failover(groups[killGroup], true)
		}
		if round == partRound {
			failover(groups[partGroup], false)
		}

		cs := &incremental.ChangeSet{}
		used := make(map[int64]bool)
		n := 1 + rng.Intn(6)
		for i := 0; i < n; i++ {
			r := rng.Float64()
			if r < 0.5 || len(liveKeys) == 0 {
				cs.Insert(randTuple(rng))
				continue
			}
			key, ok := randLive(used)
			if !ok {
				cs.Insert(randTuple(rng))
				continue
			}
			used[key] = true
			if r < 0.8 {
				a := attrs[rng.Intn(len(attrs))]
				cs.Update(key, a.name, a.vals[rng.Intn(len(a.vals))])
			} else {
				cs.Delete(key)
			}
		}

		merged, err := rt.Apply(ctx, cs)
		if err != nil {
			t.Fatalf("round %d: routed apply: %v", round, err)
		}
		subs := splitByOwner(rt, cs)

		// Oracle lockstep, and the merged delta must be exactly the
		// concatenation of the per-group deltas in sorted group order.
		var subNames []string
		for name := range subs {
			subNames = append(subNames, name)
		}
		sort.Strings(subNames)
		var wantAdded, wantRemoved []string
		for _, name := range subNames {
			od := accept(groups[name], subs[name])
			for _, c := range od.Added {
				wantAdded = append(wantAdded, c.String())
			}
			for _, c := range od.Removed {
				wantRemoved = append(wantRemoved, c.String())
			}
		}
		gotAdded := make([]string, 0, len(merged.Added))
		for _, c := range merged.Added {
			gotAdded = append(gotAdded, c.String())
		}
		gotRemoved := make([]string, 0, len(merged.Removed))
		for _, c := range merged.Removed {
			gotRemoved = append(gotRemoved, c.String())
		}
		sort.Strings(wantAdded)
		sort.Strings(wantRemoved)
		sort.Strings(gotAdded)
		sort.Strings(gotRemoved)
		if fmt.Sprint(gotAdded) != fmt.Sprint(wantAdded) || fmt.Sprint(gotRemoved) != fmt.Sprint(wantRemoved) {
			t.Fatalf("round %d: merged delta diverges from per-group oracle deltas\ngot  +%v -%v\nwant +%v -%v",
				round, gotAdded, gotRemoved, wantAdded, wantRemoved)
		}

		if round%10 == 9 {
			for _, name := range names {
				checkGroup(t, groups[name], false)
			}
		}
	}

	if !groups[killGroup].promoted || !groups[partGroup].promoted {
		t.Fatal("failover events did not fire")
	}
	for _, name := range names {
		checkGroup(t, groups[name], true)
	}
	// Cluster-wide sanity: shard sizes sum to the live-key count.
	total := 0
	for _, name := range names {
		total += groups[name].primary.Len()
	}
	compactLive()
	if total != len(liveKeys) {
		t.Fatalf("cluster holds %d tuples, bookkeeping says %d", total, len(liveKeys))
	}
}
