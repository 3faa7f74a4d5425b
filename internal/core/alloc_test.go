//go:build !race

// Allocation budgets are deterministic where wall-clock gates are not,
// but the race detector changes how the runtime allocates, so they run
// only in plain builds.

package core

import "testing"

// TestTableauProbeAllocs pins a TableauIndex probe — Match into a reused
// buffer plus MatchY over the matched rows, the Monitor's per-tuple,
// per-CFD step — at zero allocations.
func TestTableauProbeAllocs(t *testing.T) {
	cfd := MustCFD([]string{"A", "B", "C"}, []string{"D", "E"},
		PatternRow{X: []Pattern{C("1"), W(), W()}, Y: []Pattern{C("0"), W()}},
		PatternRow{X: []Pattern{C("1"), C("2"), W()}, Y: []Pattern{W(), C("2")}},
		PatternRow{X: []Pattern{W(), W(), W()}, Y: []Pattern{W(), W()}},
		PatternRow{X: []Pattern{C("1"), C("2"), C("3")}, Y: []Pattern{C("0"), C("1")}})
	ix := NewTableauIndex(cfd, idOf)
	x, y := []uint32{1, 2, 3}, []uint32{0, 1}
	rows := make([]int, 0, len(cfd.Tableau))
	violates := 0
	got := testing.AllocsPerRun(100, func() {
		rows = ix.Match(rows[:0], x)
		violates = 0
		for _, ri := range rows {
			if !ix.MatchY(ri, y) {
				violates++
			}
		}
	})
	if got != 0 {
		t.Errorf("tableau probe allocates %.1f times, want 0", got)
	}
	if len(rows) != 4 || violates != 1 {
		t.Errorf("probe matched %d rows with %d Y mismatches, want 4 and 1", len(rows), violates)
	}
}
