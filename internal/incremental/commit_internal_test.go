package incremental

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
)

// queued reads the commit queue's length.
func (m *Monitor) queued() int {
	m.q.mu.Lock()
	defer m.q.mu.Unlock()
	return len(m.q.pending)
}

// waitQueued polls until n writers are queued.
func waitQueued(t *testing.T, m *Monitor, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for m.queued() < n {
		if time.Now().After(deadline) {
			t.Fatalf("queue stuck at %d writers, want %d", m.queued(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// deltaString renders a delta as "+cfd:key" / "-cfd:key" terms.
func deltaString(d *Delta) string {
	if d == nil {
		return "<nil>"
	}
	s := ""
	for _, c := range d.Added {
		s += fmt.Sprintf("+%d:%v", c.CFD, c.Key)
	}
	for _, c := range d.Removed {
		s += fmt.Sprintf("-%d:%v", c.CFD, c.Key)
	}
	return s
}

// TestCommitWindowOneRecordPerWindow pins the commit window
// deterministically: with the writer lock held, eight writers queue up
// one by one — valid inserts, phantom deletes, a delete of a key an
// earlier writer in the same window inserts, and a re-insert of that
// key — and releasing the lock commits them all as ONE window. The
// window must append exactly one WAL record, hand every writer its own
// outcome and delta, and recover to the same state.
func TestCommitWindowOneRecordPerWindow(t *testing.T) {
	schema, sigma := metricsSchema(t) // r(A, B), [A] -> [B]
	dir := t.TempDir()
	seed := relation.New(schema)
	seed.MustInsert("a", "1") // key 0
	m, err := Load(seed, sigma, Options{Durable: dir})
	if err != nil {
		t.Fatal(err)
	}
	records := m.met.logStats.Records.Value()

	writers := []func() (*Delta, error){
		func() (*Delta, error) { _, d, err := m.Insert(relation.Tuple{"a", "2"}); return d, err }, // key 1
		func() (*Delta, error) { return m.Delete(999) },
		func() (*Delta, error) { return m.Apply((&ChangeSet{}).InsertKeyed(100, relation.Tuple{"c", "1"})) },
		func() (*Delta, error) { return m.Delete(100) }, // exists only in the window
		func() (*Delta, error) { return m.Update(1, "B", "1") },
		func() (*Delta, error) { return m.Delete(998) },
		func() (*Delta, error) { return m.Apply((&ChangeSet{}).InsertKeyed(100, relation.Tuple{"c", "2"})) },
		func() (*Delta, error) { _, d, err := m.Insert(relation.Tuple{"c", "3"}); return d, err }, // key 101
	}
	want := []string{"+0:[a]", "error", "", "", "-0:[a]", "error", "", "+0:[c]"}

	deltas := make([]*Delta, len(writers))
	errs := make([]error, len(writers))
	var wg sync.WaitGroup
	m.mu.Lock()
	for i, w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			deltas[i], errs[i] = w()
		}()
		waitQueued(t, m, i+1) // one at a time: queue order is writer order
	}
	m.mu.Unlock()
	wg.Wait()

	for i := range writers {
		got := deltaString(deltas[i])
		if errs[i] != nil {
			got = "error"
		}
		if got != want[i] {
			t.Errorf("writer %d: outcome %q (err %v), want %q", i, got, errs[i], want[i])
		}
	}
	if n := m.met.logStats.Records.Value() - records; n != 1 {
		t.Fatalf("window appended %d WAL records, want 1", n)
	}
	wantKeys := fmt.Sprint([]int64{0, 1, 100, 101})
	if got := fmt.Sprint(m.Keys()); got != wantKeys {
		t.Fatalf("keys after window = %s, want %s", got, wantKeys)
	}
	st := m.Violations()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(sigma, Options{Durable: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := fmt.Sprint(r.Keys()); got != wantKeys {
		t.Fatalf("recovered keys = %s, want %s", got, wantKeys)
	}
	if !r.Violations().Equal(st) || r.Violations().Total() != 1 {
		t.Fatalf("recovered violations %+v, want %+v", r.Violations().PerCFD, st.PerCFD)
	}
}

// TestCommitWindowAttachWithBackfill attaches a GroupStats and a
// DeltaSub while eight writers run. Attaching under the writer lock —
// the DeltaSub with a backfill, the GroupStats with a first drain of
// Σ's groups — must lose nothing: once the writers stop, the statistics
// drained from the mid-stream attach equal a fresh attach's, and every
// live constant violation's key is among the mid-stream subscription's
// touched keys.
func TestCommitWindowAttachWithBackfill(t *testing.T) {
	schema := statsSchema(t) // R(AC, CT, NM)
	sigma, err := core.ParseSet("[AC] -> [CT]\n[AC=1] -> [CT=x]")
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(schema, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	acs, cts := []string{"1", "2", "3"}, []string{"x", "y"}

	const writers, opsPer = 8, 150
	var done atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			var mine []int64
			for i := 0; i < opsPer; i++ {
				var err error
				switch {
				case len(mine) > 3 && rng.Intn(4) == 0:
					j := rng.Intn(len(mine))
					_, err = m.Delete(mine[j])
					mine = append(mine[:j], mine[j+1:]...)
				case len(mine) > 0 && rng.Intn(2) == 0:
					_, err = m.Update(mine[rng.Intn(len(mine))], "CT", cts[rng.Intn(len(cts))])
				default:
					var k int64
					k, _, err = m.Insert(relation.Tuple{acs[rng.Intn(len(acs))], cts[rng.Intn(len(cts))], fmt.Sprint(w)})
					mine = append(mine, k)
				}
				if err != nil {
					t.Error(err)
					return
				}
				done.Add(1)
			}
		}(w)
	}
	for done.Load() < writers*opsPer/4 {
		time.Sleep(50 * time.Microsecond)
	}
	mid := m.TrackGroups()
	midSub := m.TrackDeltas()
	wg.Wait()

	fresh := m.TrackGroups()
	// Later entries for a key supersede earlier ones (a group destroyed
	// and re-created drains twice, old object first); dead groups drop.
	last := func(h *GroupStats) map[gid]GroupDelta {
		out := make(map[gid]GroupDelta)
		for _, d := range h.Drain(nil) {
			k := gid{d.CFD, d.Y, d.XKey}
			if d.Support == 0 {
				delete(out, k)
			} else {
				out[k] = d
			}
		}
		return out
	}
	got, want := last(mid), last(fresh)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("mid-stream attach drained\n%v\nfresh attach drained\n%v", got, want)
	}
	for k := range want {
		a, _ := mid.Stat(k.cfd, k.y, k.xkey)
		b, _ := fresh.Stat(k.cfd, k.y, k.xkey)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("Stat(%v) = %+v, fresh %+v", k, a, b)
		}
	}

	touched := make(map[int64]bool)
	for _, k := range midSub.Drain() {
		touched[k] = true
	}
	consts := 0
	for ci, v := range m.Violations().PerCFD {
		for _, k := range v.ConstTuples {
			consts++
			if !touched[k] {
				t.Fatalf("live constant violation cfd %d key %d missing from the mid-stream subscription", ci, k)
			}
		}
	}
	if consts == 0 {
		t.Fatal("workload left no constant violations; the subscription check is vacuous")
	}
}

// TestJournalStatsSkipsWriterLock pins that GET /v1/stats never waits on
// a commit window: with the writer lock held — as it is across a
// window's append, fsync and folds, or a snapshot roll — JournalStats
// still answers, with the generation and segment records as of the last
// commit.
func TestJournalStatsSkipsWriterLock(t *testing.T) {
	schema, sigma := metricsSchema(t)
	seed := relation.New(schema)
	seed.MustInsert("a", "1")
	m, err := Load(seed, sigma, Options{Durable: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, _, err := m.Insert(relation.Tuple{"a", "2"}); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	got := make(chan JournalStats, 1)
	go func() { got <- m.JournalStats() }()
	select {
	case st := <-got:
		if !st.Durable || st.Generation != 1 || st.SegmentRecords != 1 || st.LastSnapshotErr != "" {
			t.Fatalf("JournalStats = %+v, want durable generation 1 with 1 record", st)
		}
	case <-time.After(time.Second):
		t.Fatal("JournalStats blocked on the writer lock")
	}
}
