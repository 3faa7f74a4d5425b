package detect

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenInstances is a seeded family of random instances: a relation over
// five attributes drawn from {0,1,2}, two random CFDs with |X| ≤ 3 (some
// rows all-wildcard, some constants — "9" — absent from the data) and one
// empty-LHS CFD.
func goldenInstances(n int) []struct {
	rel   *relation.Relation
	sigma []*core.CFD
} {
	rng := rand.New(rand.NewSource(32))
	attrs := []string{"A", "B", "C", "D", "E"}
	schema := relation.MustSchema("R", relation.Attr("A"), relation.Attr("B"),
		relation.Attr("C"), relation.Attr("D"), relation.Attr("E"))
	data := []relation.Value{"0", "1", "2"}
	consts := []relation.Value{"0", "1", "2", "9"}
	cells := func(n int, wild bool) []core.Pattern {
		out := make([]core.Pattern, n)
		for i := range out {
			if wild || rng.Intn(2) == 0 {
				out[i] = core.W()
			} else {
				out[i] = core.C(consts[rng.Intn(len(consts))])
			}
		}
		return out
	}
	randomCFD := func(nx int) *core.CFD {
		perm := rng.Perm(len(attrs))
		ny := 1 + rng.Intn(2)
		lhs := make([]string, nx)
		rhs := make([]string, ny)
		for i := range lhs {
			lhs[i] = attrs[perm[i]]
		}
		for i := range rhs {
			rhs[i] = attrs[perm[nx+i]]
		}
		rows := make([]core.PatternRow, 1+rng.Intn(4))
		for r := range rows {
			rows[r] = core.PatternRow{X: cells(nx, rng.Intn(4) == 0), Y: cells(ny, false)}
		}
		return core.MustCFD(lhs, rhs, rows...)
	}
	out := make([]struct {
		rel   *relation.Relation
		sigma []*core.CFD
	}, n)
	for i := range out {
		rel := relation.New(schema)
		for j, m := 0, 3+rng.Intn(14); j < m; j++ {
			t := make([]relation.Value, len(attrs))
			for k := range t {
				t[k] = data[rng.Intn(len(data))]
			}
			rel.MustInsert(t...)
		}
		out[i].rel = rel
		out[i].sigma = []*core.CFD{randomCFD(1 + rng.Intn(3)), randomCFD(1 + rng.Intn(3)), randomCFD(0)}
	}
	return out
}

// TestFindDetailedGolden pins FindDetailed's output — kind, tableau row,
// tuples and key of every violation, in order — on seeded random
// instances. Order matters: batch repair takes its proposals in
// violation order, so a reordering changes repairs. Each instance is
// also checked, as a set, against the naive core.FindViolations.
func TestFindDetailedGolden(t *testing.T) {
	var sb strings.Builder
	for i, in := range goldenInstances(50) {
		for ci, c := range in.sigma {
			fast, err := FindDetailed(in.rel, c)
			if err != nil {
				t.Fatal(err)
			}
			slow, err := core.FindViolations(in.rel, c)
			if err != nil {
				t.Fatal(err)
			}
			if !sameViolationSet(fast, slow) {
				t.Errorf("instance %d CFD %d %s: indexed %v != reference %v\ndata:\n%s", i, ci, c, fast, slow, in.rel)
			}
			fmt.Fprintf(&sb, "instance %d cfd %d: %s\n", i, ci, strings.ReplaceAll(c.String(), "\n", "; "))
			for _, v := range fast {
				fmt.Fprintf(&sb, "  %s row=%d tuples=%v key=%q\n", v.Kind, v.Row, v.Tuples, v.Key)
			}
		}
	}
	got := sb.String()
	const path = "testdata/finddetailed.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("FindDetailed output drifted from %s (run with -update to refresh)\n--- got ---\n%s", path, got)
	}
}
