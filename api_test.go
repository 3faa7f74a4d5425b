package repro

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// Facade-level integration tests: everything a downstream user touches,
// composed through the public API only.

func custFixture(t *testing.T) (*Schema, *Relation) {
	t.Helper()
	schema, err := NewSchema("cust",
		Attr("CC"), Attr("AC"), Attr("PN"), Attr("NM"), Attr("STR"), Attr("CT"), Attr("ZIP"))
	if err != nil {
		t.Fatal(err)
	}
	rel := NewRelation(schema)
	for _, row := range [][]string{
		{"01", "908", "1111111", "Mike", "Tree Ave.", "NYC", "07974"},
		{"01", "908", "1111111", "Rick", "Tree Ave.", "NYC", "07974"},
		{"01", "212", "2222222", "Joe", "Elm Str.", "NYC", "01202"},
		{"01", "212", "2222222", "Jim", "Elm Str.", "NYC", "02404"},
		{"01", "215", "3333333", "Ben", "Oak Ave.", "PHI", "02394"},
		{"44", "131", "4444444", "Ian", "High St.", "EDI", "EH4 1DT"},
	} {
		if err := rel.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return schema, rel
}

const figure2Text = `
[CC=44, ZIP] -> [STR]
[CC, AC, PN] -> [STR, CT, ZIP]
[CC=01, AC=908, PN] -> [STR, CT=MH, ZIP]
[CC=01, AC=212, PN] -> [STR, CT=NYC, ZIP]
[CC, AC] -> [CT]
[CC=01, AC=215] -> [CT=PHI]
[CC=44, AC=141] -> [CT=GLA]
`

// TestEndToEndPipeline walks the full public surface: parse → reason →
// detect (all strategies) → repair → re-detect.
func TestEndToEndPipeline(t *testing.T) {
	schema, rel := custFixture(t)
	sigma, err := ParseCFDSet(figure2Text)
	if err != nil {
		t.Fatal(err)
	}
	if len(sigma) != 3 {
		t.Fatalf("parsed %d CFDs, want 3", len(sigma))
	}

	ok, _, err := Consistent(schema, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Figure 2's Σ must be consistent")
	}

	var results []*DetectResult
	for _, opts := range []DetectOptions{
		{Strategy: StrategyDirect},
		{Strategy: StrategySQLPerCFD, Form: FormCNF},
		{Strategy: StrategySQLPerCFD, Form: FormDNF, ViaDriver: true},
		{Strategy: StrategySQLMerged, Form: FormCNF},
	} {
		res, err := Detect(rel, sigma, opts)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	for i := 1; i < len(results); i++ {
		if !results[0].Equal(results[i]) {
			t.Fatalf("strategy %d disagrees with the direct detector", i)
		}
	}
	if results[0].Clean() {
		t.Fatal("cust must violate ϕ2")
	}

	rep, err := Repair(rel, sigma, RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Satisfied {
		t.Fatalf("repair not satisfied after %d passes", rep.Passes)
	}
	after, err := Detect(rep.Repaired, sigma, DetectOptions{Strategy: StrategyDirect})
	if err != nil {
		t.Fatal(err)
	}
	if !after.Clean() {
		t.Error("repaired instance still violates Σ")
	}
}

// TestCSVRoundTripThroughFacade: write → read → same detection outcome.
func TestCSVRoundTripThroughFacade(t *testing.T) {
	_, rel := custFixture(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rel); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, "cust")
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := ParseCFDSet(figure2Text)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Detect(rel, sigma, DetectOptions{Strategy: StrategyDirect})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Detect(back, sigma, DetectOptions{Strategy: StrategyDirect})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("CSV round trip changed detection results")
	}
}

// TestSQLGenerationThroughFacade: the generated queries match the Figure 5
// shape.
func TestSQLGenerationThroughFacade(t *testing.T) {
	sigma, err := ParseCFDSet(figure2Text)
	if err != nil {
		t.Fatal(err)
	}
	qc, err := GenerateQC(sigma[1], "cust", "T2", FormCNF)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"from cust t, T2 tp", "t.CC = tp.CC", "tp.CC = '_'", "t.CT <> tp.CT"} {
		if !strings.Contains(qc, want) {
			t.Errorf("QC missing %q:\n%s", want, qc)
		}
	}
	qv, err := GenerateQV(sigma[1], "cust", "T2", FormCNF)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"group by t.CC, t.AC, t.PN", "count(distinct t.STR, t.CT, t.ZIP) > 1"} {
		if !strings.Contains(qv, want) {
			t.Errorf("QV missing %q:\n%s", want, qv)
		}
	}
}

// TestWorkloadGenerationThroughFacade: the Section 5 knobs exposed on the
// facade produce usable workloads.
func TestWorkloadGenerationThroughFacade(t *testing.T) {
	data := GenerateTax(TaxConfig{Size: 500, Noise: 0.05, Seed: 3})
	if data.Dirty.Len() != 500 {
		t.Fatalf("size = %d", data.Dirty.Len())
	}
	tpl, err := CFDTemplateByAttrs(3)
	if err != nil {
		t.Fatal(err)
	}
	cfd, err := GenerateWorkloadCFD(data.Clean, CFDConfig{Template: tpl, TabSize: 50, ConstPct: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := SatisfiesSet(data.Clean, []*CFD{cfd})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("clean data must satisfy the generated workload CFD")
	}
	if len(SemanticTaxCFDs()) == 0 {
		t.Error("semantic CFD set is empty")
	}
	if TaxSchema().Len() != 15 {
		t.Errorf("tax schema has %d attributes, want 15", TaxSchema().Len())
	}
}

// TestViolationListingThroughFacade: FindViolations exposes detailed
// violations with kinds and keys.
func TestViolationListingThroughFacade(t *testing.T) {
	_, rel := custFixture(t)
	sigma, err := ParseCFDSet(figure2Text)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := FindViolations(rel, sigma[1])
	if err != nil {
		t.Fatal(err)
	}
	var consts, vars int
	for _, v := range vs {
		switch v.Kind {
		case ConstViolation:
			consts++
		case VariableViolation:
			vars++
		}
	}
	if consts != 2 || vars != 2 {
		t.Errorf("got %d const, %d variable violations; want 2 and 2", consts, vars)
	}
}

// TestImplicationAndCoverThroughFacade re-checks Examples 3.2/3.3 on the
// public API.
func TestImplicationAndCoverThroughFacade(t *testing.T) {
	schema, err := NewSchema("R", Attr("A"), Attr("B"), Attr("C"))
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := ParseCFDSet("[A] -> [B=b]\n[B] -> [C=c]\n")
	if err != nil {
		t.Fatal(err)
	}
	phi, err := ParseCFD("[A=a] -> [C]")
	if err != nil {
		t.Fatal(err)
	}
	ok, err := Implies(schema, sigma, phi)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("Example 3.2 implication failed on the facade")
	}
	cover, err := MinimalCover(schema, append(sigma, phi))
	if err != nil {
		t.Fatal(err)
	}
	if len(cover) != 2 {
		t.Errorf("Example 3.3 cover = %v", cover)
	}
	eq, err := Equivalent(schema, append(sigma, phi), CoverToCFDs(cover))
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("cover not equivalent")
	}
}

// TestPatternConstructors: the exported Const/Wildcard helpers build CFDs
// programmatically.
func TestPatternConstructors(t *testing.T) {
	cfd, err := NewCFD([]string{"CC", "ZIP"}, []string{"STR"},
		PatternRow{X: []Pattern{Const("44"), Wildcard()}, Y: []Pattern{Wildcard()}})
	if err != nil {
		t.Fatal(err)
	}
	if cfd.String() != "[CC=44, ZIP] -> [STR]" {
		t.Errorf("String = %q", cfd.String())
	}
	back, err := ParseCFD(cfd.String())
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != cfd.String() {
		t.Error("constructor/parser round trip failed")
	}
}

// TestMonitorThroughFacade: incremental monitoring composed through the
// public API only — load, mutate, query, and agree with batch Detect.
func TestMonitorThroughFacade(t *testing.T) {
	_, rel := custFixture(t)
	sigma, err := ParseCFDSet(figure2Text)
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadMonitor(rel, sigma, MonitorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Satisfied() {
		t.Fatal("Figure 1 instance should violate Σ")
	}
	// The live set after Load matches a batch run (keys == row ids here).
	batch, err := Detect(rel, sigma, DetectOptions{Strategy: StrategyDirect})
	if err != nil {
		t.Fatal(err)
	}
	live := m.Violations()
	for i := range sigma {
		if len(live.PerCFD[i].ConstTuples) != len(batch.PerCFD[i].ConstTuples) ||
			len(live.PerCFD[i].VariableKeys) != len(batch.PerCFD[i].VariableKeys) {
			t.Fatalf("CFD %d: live (%d const, %d var) vs batch (%d const, %d var)",
				i, len(live.PerCFD[i].ConstTuples), len(live.PerCFD[i].VariableKeys),
				len(batch.PerCFD[i].ConstTuples), len(batch.PerCFD[i].VariableKeys))
		}
	}
	// Repair the Example 2.2 violations through the mutation surface and
	// watch the live set drain to empty.
	if _, err := m.Update(1, "NM", "Mike"); err != nil { // no CFD mentions NM
		t.Fatal(err)
	}
	// t1/t2 violate ϕ2's 908→MH row: set CT to MH.
	for _, key := range []int64{0, 1} {
		if _, err := m.Update(key, "CT", "MH"); err != nil {
			t.Fatal(err)
		}
	}
	// t3/t4 disagree on ZIP under ϕ2: align them.
	if _, err := m.Update(3, "ZIP", "01202"); err != nil {
		t.Fatal(err)
	}
	if !m.Satisfied() {
		t.Fatalf("expected clean instance after repairs, still have:\n%v", m.Violations().PerCFD)
	}
	// Batch agrees on the snapshot.
	res, err := Detect(m.Snapshot(), sigma, DetectOptions{Strategy: StrategyDirect})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatal("batch detector disagrees with Satisfied()")
	}
	// A fresh violating insert reports its delta.
	_, delta, err := m.Insert(Tuple{"01", "908", "1111111", "Eve", "Oak Ave.", "NYC", "07974"})
	if err != nil {
		t.Fatal(err)
	}
	if delta.Empty() {
		t.Fatal("violating insert produced no delta")
	}
}

// TestChangeSetThroughFacade: the batched mutation path composed through
// the public API — one Apply carrying a mixed op vector, keys read back
// from the ChangeSet, net delta healing the insert above.
func TestChangeSetThroughFacade(t *testing.T) {
	_, rel := custFixture(t)
	sigma, err := ParseCFDSet(figure2Text)
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadMonitor(rel, sigma, MonitorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var cs ChangeSet
	cs.Insert(Tuple{"01", "908", "7777777", "Eve", "Oak Ave.", "MH", "07974"})
	cs.Update(0, "CT", "MH")
	cs.Update(1, "CT", "MH")
	cs.Update(3, "ZIP", "01202")
	delta, err := m.Apply(&cs)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Ops[0].Kind != OpInsert || cs.Ops[0].Key != int64(rel.Len()) {
		t.Fatalf("insert op key = %d, want %d", cs.Ops[0].Key, rel.Len())
	}
	if len(delta.Removed) == 0 {
		t.Fatalf("healing batch retired nothing: %+v", delta)
	}
	if !m.Satisfied() {
		t.Fatalf("expected clean instance after the batch:\n%v", m.Violations().PerCFD)
	}
	// An invalid op anywhere rejects the whole batch.
	bad := (&ChangeSet{}).Update(0, "CT", "NYC").Delete(999)
	if _, err := m.Apply(bad); err == nil {
		t.Fatal("batch with unknown key accepted")
	}
	if got, _ := m.Get(0); got[5] != "MH" {
		t.Fatal("rejected batch partially applied")
	}
}

// TestStreamingDiscoveryThroughFacade: DiscoverCFDs over a live
// monitor's Snapshot follows its changes — an insert contradicting a
// mined FD changes the mined set, deleting it restores the seed's set —
// and the generalized group-statistics substrate is reachable for
// custom aggregations.
func TestStreamingDiscoveryThroughFacade(t *testing.T) {
	_, rel := custFixture(t)
	sigma, err := ParseCFDSet(figure2Text)
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadMonitor(rel, sigma, MonitorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DiscoveryConfig{MaxLHS: 1, MinSupport: 2}
	mine := func() []string {
		t.Helper()
		ds, err := DiscoverCFDs(m.Snapshot(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(ds))
		for i, d := range ds {
			out[i] = fmt.Sprintf("%v %v %v", d.CFD, d.IsFD, d.Support)
		}
		return out
	}
	seed := mine()
	if len(seed) == 0 {
		t.Fatal("nothing mined from the seed")
	}
	if want, err := DiscoverCFDs(rel, cfg); err != nil || len(want) != len(seed) {
		t.Fatalf("the snapshot mines %d CFDs, the loaded relation %d (%v)", len(seed), len(want), err)
	}

	// Break a mined FD: the next snapshot mines a different set.
	key, _, err := m.Insert(Tuple{"01", "908", "7777777", "Eve", "Oak Ave.", "LA", "99999"})
	if err != nil {
		t.Fatal(err)
	}
	if got := mine(); reflect.DeepEqual(got, seed) {
		t.Fatal("the insert must change the mined set")
	}
	if _, err := m.Delete(key); err != nil {
		t.Fatal(err)
	}
	if got := mine(); !reflect.DeepEqual(got, seed) {
		t.Fatalf("after the delete the mined set is\n%v\nwant the seed's\n%v", got, seed)
	}

	// Invalid configs are rejected at the facade.
	if _, err := DiscoverCFDs(m.Snapshot(), DiscoveryConfig{MinConfidence: 1.5}); err == nil {
		t.Fatal("invalid config must be rejected")
	}
	if _, err := DiscoverCFDs(rel, DiscoveryConfig{MaxPatterns: -1}); err == nil {
		t.Fatal("invalid config must be rejected by DiscoverCFDs")
	}

	// The group-statistics substrate: track Σ's groups directly.
	var stats *MonitorGroupStats = m.TrackGroups()
	defer m.UntrackGroups(stats)
	var deltas []MonitorGroupDelta
	deltas = stats.Drain(deltas)
	if len(deltas) == 0 {
		t.Fatal("the first drain must report every group")
	}
	for _, d := range deltas {
		if d.XKey == "" || d.Support == 0 {
			t.Fatalf("bad initial delta %+v", d)
		}
	}
}
