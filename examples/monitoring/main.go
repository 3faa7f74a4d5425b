// Monitoring: the incremental serving path. The batch detectors of
// Section 4 answer "does I satisfy Σ?" by scanning I; the Monitor answers
// the production follow-up — keep that answer current while I changes —
// in time proportional to the affected tuples, emitting the exact
// violation delta of every insert, delete and update. The second act
// batches changes: one ChangeSet through Monitor.Apply is validated as a
// unit, applied in one shard pass, and answered with its net delta. The
// third act queries the read path: the O(delta)-maintained violation
// view, whose version moves only when the violation set does (cfdserve's
// ETag), and per-key point lookups that skip the view entirely. The
// fourth act repairs on-stream: WatchRepairs attaches the live repair
// engine, which keeps one cost-ranked fix suggestion per live violation
// and turns accepted suggestions into an ordinary ChangeSet — the
// GET /v1/repairs and POST /v1/repairs/apply path of cfdserve. The
// fifth act mines the monitor's own constraints on demand: DiscoverCFDs
// over Monitor.Snapshot, before and after a contradicting insert, shows
// which CFDs the change broke — the GET /v1/discover path of cfdserve. The sixth act makes the
// monitor durable: journaled to a write-ahead log (a ChangeSet is one
// record and one fsync), snapshotted, closed, and resumed from disk
// without touching the original instance. The seventh act replicates it:
// a hot-standby follower tails the durable node's WAL segments into its
// own directory, serves reads while refusing writes, and is promoted to
// a writable primary at the exact record boundary it has applied — the
// failover path cfdserve runs with -follow and POST /promote. The
// eighth act scrapes the observability surface: every monitor carries a metrics
// registry (apply-stage latencies, WAL timings, violation-delta
// counters) that renders in the Prometheus text format — cfdserve serves
// the same thing as GET /metrics.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strings"

	"repro"
)

func main() {
	// The cust schema and Figure 1 instance of the paper.
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

	// ϕ2 of Figure 2: phone determines address, with the 908→MH and
	// 212→NYC bindings.
	sigma, err := repro.ParseCFDSet(`
[CC, AC, PN] -> [STR, CT, ZIP]
[CC=01, AC=908, PN] -> [STR, CT=MH, ZIP]
[CC=01, AC=212, PN] -> [STR, CT=NYC, ZIP]
`)
	if err != nil {
		log.Fatal(err)
	}

	// Load the instance once; the monitor builds its persistent indexes
	// and the live violation set.
	m, err := repro.LoadMonitor(cust, sigma, repro.MonitorOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d tuples; satisfied = %v\n\n", m.Len(), m.Satisfied())

	show := func(what string, d *repro.ViolationDelta) {
		fmt.Println(what)
		for _, c := range d.Added {
			fmt.Printf("  + %s\n", c)
		}
		for _, c := range d.Removed {
			fmt.Printf("  - %s\n", c)
		}
		if d.Empty() {
			fmt.Println("  (no violation change)")
		}
		fmt.Printf("  satisfied = %v, live violations = %d\n\n", m.Satisfied(), m.ViolationCount())
	}

	// A dirty insert: Eve shares Mike's phone number but reports NYC —
	// that breaks the 908→MH constant binding AND makes the phone group
	// disagree on CT. One operation, two new violations, zero rescans.
	key, delta, err := m.Insert(repro.Tuple{"01", "908", "1111111", "Eve", "Tree Ave.", "NYC", "07974"})
	if err != nil {
		log.Fatal(err)
	}
	show(fmt.Sprintf("insert Eve (key %d):", key), delta)

	// Fixing her city retires both violations — the delta is the proof.
	delta, err = m.Update(key, "CT", "MH")
	if err != nil {
		log.Fatal(err)
	}
	show("update Eve's CT to MH:", delta)

	// Deleting a tuple from a clean group changes nothing.
	delta, err = m.Delete(key)
	if err != nil {
		log.Fatal(err)
	}
	show("delete Eve:", delta)

	// The live set can be snapshotted at any time; here it is empty, and
	// the batch detector agrees on the materialized instance.
	res, err := repro.Detect(m.Snapshot(), sigma, repro.DetectOptions{Strategy: repro.StrategyDirect})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch detector on the snapshot agrees: clean = %v\n\n", res.Clean())

	// --- batched ingest ---
	//
	// Changes that arrive together should land together: a ChangeSet is
	// an ordered op vector applied by ONE Monitor.Apply — validated as a
	// unit (an invalid op rejects all of it), applied in one pass, and
	// in durable mode one WAL record and one fsync. The delta is the
	// batch's net effect across all its ops.
	var cs repro.ChangeSet
	cs.Insert(repro.Tuple{"01", "908", "1111111", "Eve", "Tree Ave.", "NYC", "07974"})
	evePos := len(cs.Ops) - 1
	cs.Update(0, "NM", "Michael") // no CFD mentions NM: no delta
	batchDelta, err := m.Apply(&cs)
	if err != nil {
		log.Fatal(err)
	}
	eveKey := cs.Ops[evePos].Key // inserted keys come back in the ops
	show(fmt.Sprintf("batch of %d ops (Eve's key %d):", cs.Len(), eveKey), batchDelta)
	// Heal her city in a second batch referencing the returned key.
	healDelta, err := m.Apply((&repro.ChangeSet{}).Update(eveKey, "CT", "MH"))
	if err != nil {
		log.Fatal(err)
	}
	show("healing batch:", healDelta)

	// --- read queries: the violation view ---
	//
	// Serving reads never rescans: Violations() answers from an
	// O(delta)-maintained view — an atomic pointer load whose version
	// advances only when the violation set actually changes. That
	// version is the ETag cfdserve hands to GET /violations pollers: an
	// unchanged version is a guaranteed 304.
	fmt.Printf("view version %d: %d live violation(s)\n", m.ViewVersion(), m.Violations().Total())
	// A write no CFD cares about leaves the version alone...
	if _, err := m.Update(eveKey, "NM", "Eva"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after a CFD-irrelevant update: version %d — pollers keep their 304\n", m.ViewVersion())
	// ...while a dirty write moves it, and only the CFDs the delta
	// touched are re-canonicalized on the next read.
	if _, err := m.Update(eveKey, "CT", "NYC"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after a dirty update: version %d, %d violation(s)\n", m.ViewVersion(), m.Violations().Total())
	// Point lookups skip the view entirely and probe the per-key
	// stores — the GET /violations?key=N path.
	per, ok := m.ViolationsFor(eveKey)
	fmt.Printf("ViolationsFor(Eve, key %d): exists = %v, %d violation(s) touch her\n\n", eveKey, ok, per.Total())

	// --- live repair ---
	//
	// Eve is still dirty — and the monitor can say how to fix her.
	// WatchRepairs attaches the live repair engine: one cost-ranked
	// suggestion per live violation (an RHS edit for a broken constant
	// binding, a value merge or LHS break for a disagreeing group),
	// re-planned only for the violations each batch touches. Accepted
	// suggestion IDs become an ordinary ChangeSet through Plan, so the
	// fix takes the same Apply path as any other write — this is what
	// cfdserve serves as GET /v1/repairs and POST /v1/repairs/apply.
	sg, err := repro.WatchRepairs(m, repro.SuggestOptions{})
	if err != nil {
		log.Fatal(err)
	}
	sugs := sg.Suggestions()
	fmt.Printf("live repair: %d suggestion(s), cheapest first:\n", len(sugs))
	ids := make([]string, 0, len(sugs))
	for _, s := range sugs {
		fmt.Printf("  [%s] %s, cost %.0f: %s\n", s.ID, s.Kind, s.Cost, s.Reason)
		ids = append(ids, s.ID)
	}
	planCS, cellEdits, err := sg.Plan(ids)
	if err != nil {
		log.Fatal(err)
	}
	for _, ce := range cellEdits {
		fmt.Printf("  plan: key %d %s: %q -> %q\n", ce.Key, ce.Attr, ce.From, ce.To)
	}
	repairDelta, err := m.Apply(planCS)
	if err != nil {
		log.Fatal(err)
	}
	show("applying the planned repair:", repairDelta)
	sg.Refresh()
	fmt.Printf("suggestions after the fix: %d — discovery below sees the clean instance\n\n", len(sg.Suggestions()))
	sg.Close()

	// --- discovery on demand ---
	//
	// The same monitor can mine its own constraints: DiscoverCFDs runs
	// over a snapshot of the live instance, so mining again after a
	// change shows what the change broke.
	cfg := repro.DiscoveryConfig{MaxLHS: 1, MinSupport: 2}
	before, err := repro.DiscoverCFDs(m.Snapshot(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("discovery: %d CFDs hold on the current instance, e.g.:\n", len(before))
	for i, d := range before {
		if i == 3 {
			fmt.Println("  ...")
			break
		}
		fmt.Printf("  %s\n", d.CFD)
	}
	// A tuple that contradicts phone→city: mining the next snapshot
	// drops the CFDs it breaks. Deleting it heals the instance.
	breakKey, _, err := m.Insert(repro.Tuple{"01", "908", "1111111", "Sam", "Tree Ave.", "LA", "07974"})
	if err != nil {
		log.Fatal(err)
	}
	after, err := repro.DiscoverCFDs(m.Snapshot(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after a contradicting insert: %d CFDs hold\n", len(after))
	holds := make(map[string]bool, len(after))
	for _, d := range after {
		holds[d.CFD.String()] = true
	}
	for _, d := range before {
		if !holds[d.CFD.String()] {
			fmt.Printf("  no longer holds: %s\n", d.CFD)
		}
	}
	if _, err := m.Delete(breakKey); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	// --- restart and resume ---
	//
	// A production node must not re-parse and re-index its CSV on every
	// boot. With Durable set, the monitor journals each mutation to a
	// write-ahead log in the directory before applying it, and recovery
	// is snapshot + log-tail replay (see "Durability guarantees" in the
	// package docs; cfdserve -wal-dir is this exact path).
	dir, err := os.MkdirTemp("", "monitoring-wal-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	durable, err := repro.LoadMonitor(cust, sigma, repro.MonitorOptions{Durable: dir})
	if err != nil {
		log.Fatal(err)
	}
	// The first boot seeds from cust and snapshots; the CSV-equivalent
	// is never needed again. A dirty insert lands in the log before it
	// lands in the indexes.
	if _, _, err := durable.Insert(repro.Tuple{"01", "908", "1111111", "Eve", "Tree Ave.", "NYC", "07974"}); err != nil {
		log.Fatal(err)
	}
	stats := durable.JournalStats()
	fmt.Printf("durable node: generation %d, %d journaled record(s), %d live violation(s)\n",
		stats.Generation, stats.SegmentRecords, durable.ViolationCount())
	if err := durable.Close(); err != nil { // flush; a crash here loses nothing fsynced
		log.Fatal(err)
	}

	// "Restart": same directory, no instance. The journaled state wins —
	// the relation, indexes and live violations come back from disk.
	resumed, err := repro.NewMonitor(schema, sigma, repro.MonitorOptions{Durable: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer resumed.Close()
	fmt.Printf("resumed from %s: recovered = %v, %d tuples, %d live violation(s)\n",
		dir, resumed.Recovered(), resumed.Len(), resumed.ViolationCount())

	// ForceSnapshot folds the log into a fresh generation — what cfdserve
	// does on POST /snapshot and on every graceful shutdown.
	if err := resumed.ForceSnapshot(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after snapshot: generation %d, %d record(s) in the new segment\n\n",
		resumed.JournalStats().Generation, resumed.JournalStats().SegmentRecords)

	// --- replication and failover ---
	//
	// One durable node is still one machine. A follower tails the
	// primary's WAL — snapshot first, then record-aligned segment chunks
	// — into its OWN directory, applying each record through the same
	// replay path recovery uses. In production the chunks travel over
	// cfdserve's GET /wal/snapshot and /wal/stream; in-process the same
	// protocol runs through NewMonitorChunkSource.
	ctx := context.Background()
	fdir, err := os.MkdirTemp("", "monitoring-follower-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(fdir)
	follower, err := repro.FollowMonitor(ctx, sigma,
		repro.MonitorOptions{Durable: fdir},
		repro.FollowOptions{Source: repro.NewMonitorChunkSource(resumed)})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := follower.Sync(ctx); err != nil { // one catch-up pass
		log.Fatal(err)
	}
	standby := follower.Monitor()
	fmt.Printf("follower synced: %d tuples, %d live violation(s), read-only = %v\n",
		standby.Len(), standby.ViolationCount(), standby.ReadOnly())

	// Writes keep landing on the primary and ship on the next Sync; the
	// standby's own mutation surface is gated.
	if _, _, err := resumed.Insert(repro.Tuple{"01", "212", "2222222", "Amy", "Elm Str.", "LA", "01202"}); err != nil {
		log.Fatal(err)
	}
	if _, err := follower.Sync(ctx); err != nil {
		log.Fatal(err)
	}
	st := follower.Status()
	fmt.Printf("after one more primary write: follower at generation %d offset %d, lag %d bytes\n",
		st.Seq, st.Offset, st.LagBytes)
	if _, _, err := standby.Insert(repro.Tuple{"01", "908", "1111111", "Zoe", "Tree Ave.", "MH", "07974"}); err != nil {
		fmt.Printf("write on the standby refused: %v\n", err)
	}

	// The primary dies; promotion flips the standby into a writable
	// primary at the record boundary it has applied — no re-seed, no
	// replay from scratch. cfdserve does this on POST /promote (or
	// automatically with -promote-after).
	if err := resumed.Close(); err != nil {
		log.Fatal(err)
	}
	if err := follower.Promote(); err != nil {
		log.Fatal(err)
	}
	_, _, err = standby.Insert(repro.Tuple{"01", "908", "1111111", "Zoe", "Tree Ave.", "NYC", "07974"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("promoted: read-only = %v, %d tuples, %d live violation(s) after a failover write\n",
		standby.ReadOnly(), standby.Len(), standby.ViolationCount())

	// Every monitor carries a metrics registry (a private one unless
	// MonitorOptions.Metrics shares the process-global DefaultMetrics).
	// The promoted standby's scrape below shows the whole serving path
	// it lived through — replica ship counters included — in the same
	// Prometheus text format cfdserve serves on GET /metrics.
	var scrape strings.Builder
	if err := standby.Metrics().WritePrometheus(&scrape); err != nil {
		log.Fatal(err)
	}
	families := strings.Count(scrape.String(), "# TYPE ")
	fmt.Printf("\nmetrics scrape: %d families\n", families)
	for _, line := range strings.Split(scrape.String(), "\n") {
		if strings.HasPrefix(line, "cfd_apply_ops_total") ||
			strings.HasPrefix(line, "cfd_replica_records_total") ||
			strings.HasPrefix(line, "cfd_wal_records_total") {
			fmt.Println("  " + line)
		}
	}
	if err := standby.Close(); err != nil {
		log.Fatal(err)
	}
}
