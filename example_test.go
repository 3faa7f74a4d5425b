package repro_test

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro"
)

// custExample builds the paper's Figure 1 cust instance and the ϕ2
// constraint of Figure 2 (phone determines address, with the 908→MH
// constant binding) behind a loaded monitor.
func custExample(opts repro.MonitorOptions) (*repro.Monitor, *repro.Schema, []*repro.CFD) {
	schema, err := repro.NewSchema("cust",
		repro.Attr("CC"), repro.Attr("AC"), repro.Attr("PN"),
		repro.Attr("NM"), repro.Attr("STR"), repro.Attr("CT"), repro.Attr("ZIP"))
	if err != nil {
		log.Fatal(err)
	}
	cust := repro.NewRelation(schema)
	for _, t := range [][]string{
		{"01", "908", "1111111", "Mike", "Tree Ave.", "MH", "07974"},
		{"01", "908", "1111111", "Rick", "Tree Ave.", "MH", "07974"},
		{"01", "212", "2222222", "Joe", "Elm Str.", "NYC", "01202"},
	} {
		if err := cust.Insert(t); err != nil {
			log.Fatal(err)
		}
	}
	sigma, err := repro.ParseCFDSet(`
[CC, AC, PN] -> [STR, CT, ZIP]
[CC=01, AC=908, PN] -> [STR, CT=MH, ZIP]
`)
	if err != nil {
		log.Fatal(err)
	}
	m, err := repro.LoadMonitor(cust, sigma, opts)
	if err != nil {
		log.Fatal(err)
	}
	return m, schema, sigma
}

// A monitor keeps the violation set of Σ current while the instance
// changes, answering every mutation with its exact violation delta —
// no rescans.
func ExampleNewMonitor() {
	m, _, _ := custExample(repro.MonitorOptions{})
	fmt.Printf("loaded %d tuples, satisfied = %v\n", m.Len(), m.Satisfied())

	// Eve shares Mike's phone number but reports NYC: that breaks the
	// 908→MH constant binding AND makes her phone group disagree on CT.
	key, delta, err := m.Insert(repro.Tuple{"01", "908", "1111111", "Eve", "Tree Ave.", "NYC", "07974"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dirty insert: %d new violations, satisfied = %v\n", len(delta.Added), m.Satisfied())

	// Fixing her city retires both; the delta is the proof.
	delta, err = m.Update(key, "CT", "MH")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fix: %d violations retired, satisfied = %v\n", len(delta.Removed), m.Satisfied())
	// Output:
	// loaded 3 tuples, satisfied = true
	// dirty insert: 2 new violations, satisfied = false
	// fix: 2 violations retired, satisfied = true
}

// A ChangeSet is an ordered op vector applied by one Monitor.Apply:
// validated as a unit (an invalid op rejects all of it), applied in one
// shard pass, and — on a durable monitor — journaled as one WAL record
// with one fsync. The delta is the batch's net effect.
func ExampleChangeSet() {
	m, _, _ := custExample(repro.MonitorOptions{})

	var cs repro.ChangeSet
	cs.Insert(repro.Tuple{"01", "908", "1111111", "Eve", "Tree Ave.", "NYC", "07974"})
	cs.Update(0, "NM", "Michael") // no CFD mentions NM: contributes no delta
	delta, err := m.Apply(&cs)
	if err != nil {
		log.Fatal(err)
	}
	eveKey := cs.Ops[0].Key // inserted keys come back in the ops
	fmt.Printf("batch of %d ops: %d violations added\n", cs.Len(), len(delta.Added))

	// A second batch heals her city through the returned key.
	delta, err = m.Apply((&repro.ChangeSet{}).Update(eveKey, "CT", "MH"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("healing batch: %d violations retired\n", len(delta.Removed))

	// Batches are atomic: one bad op rejects the whole ChangeSet.
	bad := (&repro.ChangeSet{}).Update(999, "CT", "MH").Update(eveKey, "NM", "Eva")
	if _, err := m.Apply(bad); err != nil {
		fmt.Printf("rejected: %v\n", err)
	}
	fmt.Printf("monitor unchanged: %d tuples, satisfied = %v\n", m.Len(), m.Satisfied())
	// Output:
	// batch of 2 ops: 2 violations added
	// healing batch: 2 violations retired
	// rejected: incremental: changeset op 0: no tuple with key 999
	// monitor unchanged: 4 tuples, satisfied = true
}

// A follower is a hot standby: it tails the primary's WAL — snapshot
// first, then record-aligned chunks — into its own directory, serves
// reads while refusing writes, and promotes to a writable primary at
// the record boundary it has applied. In production the chunks travel
// over cfdserve's /wal endpoints; in-process the same protocol runs
// through NewMonitorChunkSource.
func ExampleFollowMonitor() {
	pdir, err := os.MkdirTemp("", "example-primary-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(pdir)
	fdir, err := os.MkdirTemp("", "example-follower-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(fdir)

	primary, _, sigma := custExample(repro.MonitorOptions{Durable: pdir})
	ctx := context.Background()
	follower, err := repro.FollowMonitor(ctx, sigma,
		repro.MonitorOptions{Durable: fdir},
		repro.FollowOptions{Source: repro.NewMonitorChunkSource(primary)})
	if err != nil {
		log.Fatal(err)
	}

	// A write lands on the primary and ships on the next catch-up pass.
	if _, _, err := primary.Insert(repro.Tuple{"01", "908", "1111111", "Eve", "Tree Ave.", "NYC", "07974"}); err != nil {
		log.Fatal(err)
	}
	if _, err := follower.Sync(ctx); err != nil {
		log.Fatal(err)
	}
	standby := follower.Monitor()
	fmt.Printf("standby: %d tuples, %d violations, read-only = %v\n",
		standby.Len(), standby.ViolationCount(), standby.ReadOnly())

	// The primary dies; promotion flips the standby into a writable
	// primary — no re-seed, no replay from scratch.
	if err := primary.Close(); err != nil {
		log.Fatal(err)
	}
	if err := follower.Promote(); err != nil {
		log.Fatal(err)
	}
	if _, err := standby.Update(0, "NM", "Michael"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("promoted: read-only = %v, %d tuples\n", standby.ReadOnly(), standby.Len())
	if err := standby.Close(); err != nil {
		log.Fatal(err)
	}
	// Output:
	// standby: 4 tuples, 2 violations, read-only = true
	// promoted: read-only = false, 4 tuples
}

// DiscoverCFDs mines the CFDs that hold on an instance; over a live
// monitor, mine its Snapshot. A tuple contradicting phone→city changes
// what the next snapshot mines.
func ExampleDiscoverCFDs() {
	m, _, _ := custExample(repro.MonitorOptions{})
	cfg := repro.DiscoveryConfig{MaxLHS: 1, MinSupport: 2}
	mined, err := repro.DiscoverCFDs(m.Snapshot(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mined: %d CFDs hold\n", len(mined))

	if _, _, err := m.Insert(repro.Tuple{"01", "908", "1111111", "Sam", "Tree Ave.", "LA", "07974"}); err != nil {
		log.Fatal(err)
	}
	mined, err = repro.DiscoverCFDs(m.Snapshot(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after a contradicting insert: %d CFDs hold\n", len(mined))
	// Output:
	// mined: 25 CFDs hold
	// after a contradicting insert: 21 CFDs hold
}
