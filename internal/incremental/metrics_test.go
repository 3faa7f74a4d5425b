package incremental

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relation"
)

func metricsSchema(t *testing.T) (*relation.Schema, []*core.CFD) {
	t.Helper()
	schema, err := relation.NewSchema("r", relation.Attr("A"), relation.Attr("B"))
	if err != nil {
		t.Fatal(err)
	}
	cfd, err := core.ParseCFD("[A] -> [B]")
	if err != nil {
		t.Fatal(err)
	}
	return schema, []*core.CFD{cfd}
}

func TestMonitorMetrics(t *testing.T) {
	schema, sigma := metricsSchema(t)
	reg := obs.NewRegistry()
	m, err := New(schema, sigma, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if m.Metrics() != reg {
		t.Fatal("Metrics() must return the registry passed in Options")
	}

	k1, _, err := m.Insert(relation.Tuple{"x", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Insert(relation.Tuple{"x", "2"}); err != nil {
		t.Fatal(err) // same A, different B: one variable violation
	}
	if _, err := m.Update(k1, "B", "2"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Delete(k1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Delete(12345); err == nil {
		t.Fatal("expected missing-key rejection")
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`cfd_apply_ops_total{op="insert"} 2`,
		`cfd_apply_ops_total{op="update"} 1`,
		`cfd_apply_ops_total{op="delete"} 1`,
		`cfd_apply_batches_total 4`,
		`cfd_apply_rejected_total 1`,
		`cfd_violations_added_total 1`,
		`cfd_violations_removed_total 1`,
		`cfd_tuples 1`,
		`cfd_violations 0`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("scrape missing %q\n%s", want, out)
		}
	}
	if !strings.Contains(out, "cfd_apply_seconds_count 4") {
		t.Errorf("apply histogram must count the four applied batches\n%s", out)
	}
}

func TestMonitorMetricsHermetic(t *testing.T) {
	schema, sigma := metricsSchema(t)
	a, err := New(schema, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(schema, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics() == b.Metrics() {
		t.Fatal("monitors without Options.Metrics must get private registries")
	}
}

func TestDurableMetrics(t *testing.T) {
	schema, sigma := metricsSchema(t)
	reg := obs.NewRegistry()
	m, err := New(schema, sigma, Options{Durable: t.TempDir(), Fsync: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	cs := &ChangeSet{}
	cs.Insert(relation.Tuple{"x", "1"}).Insert(relation.Tuple{"y", "2"})
	if _, err := m.Apply(cs); err != nil {
		t.Fatal(err)
	}
	if err := m.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"cfd_wal_records_total 1", // one batch = one WAL record
		"cfd_wal_snapshots_total 1",
		"cfd_apply_wal_append_seconds_count 1",
		"cfd_apply_validate_seconds_count 1",
		"cfd_apply_shard_seconds_count 1",
		"cfd_wal_snapshot_seconds_count 1",
		"cfd_wal_segment_roll_seconds_count 1",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("scrape missing %q\n%s", want, out)
		}
	}
	if !strings.Contains(out, "cfd_wal_fsync_seconds_count") || strings.Contains(out, "cfd_wal_fsync_seconds_count 0\n") {
		t.Errorf("fsync timer must have observations\n%s", out)
	}
	if !strings.Contains(out, "cfd_wal_append_bytes_total") {
		t.Errorf("scrape missing WAL byte counter\n%s", out)
	}
}

func TestFollowerMetrics(t *testing.T) {
	schema, sigma := metricsSchema(t)
	preg := obs.NewRegistry()
	primary, err := New(schema, sigma, Options{Durable: t.TempDir(), SnapshotEvery: 0, RetainSegments: 4, Metrics: preg})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if _, _, err := primary.Insert(relation.Tuple{"x", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := primary.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := primary.Insert(relation.Tuple{"x", "2"}); err != nil {
		t.Fatal(err)
	}

	freg := obs.NewRegistry()
	f, err := NewFollower(context.Background(), sigma,
		Options{Durable: t.TempDir(), Metrics: freg},
		FollowOptions{Source: NewMonitorSource(primary)})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := freg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"cfd_replica_records_total 1",
		"cfd_replica_lag_bytes 0",
		"cfd_replica_lag_segments 0",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("follower scrape missing %q\n%s", want, out)
		}
	}
	if strings.Contains(out, "cfd_replica_chunks_total 0\n") {
		t.Errorf("chunk counter must have counted exchanges\n%s", out)
	}
	// A plain primary's registry must not carry replica series.
	sb.Reset()
	if err := preg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "cfd_replica_") {
		t.Errorf("primary scrape must not contain replica series\n%s", sb.String())
	}
}
