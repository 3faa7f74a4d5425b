package core

import (
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"repro/internal/relation"
)

// idOf numbers the test values "0", "1", ... by their integer value, so
// an ID vector and its value vector stand for each other.
func idOf(v relation.Value) uint32 {
	n, err := strconv.Atoi(v)
	if err != nil {
		panic(err)
	}
	return uint32(n)
}

func valuesOf(ids []uint32) []relation.Value {
	out := make([]relation.Value, len(ids))
	for i, id := range ids {
		out[i] = strconv.Itoa(int(id))
	}
	return out
}

// randomTableauCFD draws a CFD with nx LHS and ny RHS cells per row whose
// cells are constants from 0..k-1, '_' or '@'; about one row in four
// repeats an earlier row verbatim.
func randomTableauCFD(rng *rand.Rand, nx, ny, k int) *CFD {
	cell := func() Pattern {
		switch rng.Intn(4) {
		case 0:
			return W()
		case 1:
			return AtSign()
		default:
			return C(strconv.Itoa(rng.Intn(k)))
		}
	}
	c := &CFD{LHS: make([]string, nx), RHS: make([]string, ny)}
	for r, n := 0, 1+rng.Intn(8); r < n; r++ {
		if r > 0 && rng.Intn(4) == 0 {
			c.Tableau = append(c.Tableau, c.Tableau[rng.Intn(r)].Clone())
			continue
		}
		row := PatternRow{X: make([]Pattern, nx), Y: make([]Pattern, ny)}
		for i := range row.X {
			row.X[i] = cell()
		}
		for i := range row.Y {
			row.Y[i] = cell()
		}
		c.Tableau = append(c.Tableau, row)
	}
	return c
}

// TestTableauIndexMatchesBruteForce (property): on random tableaux —
// '@' cells, duplicate rows, empty LHS — Match returns exactly the rows
// a brute-force MatchCells over every row accepts, Order lists every row
// once, and MatchY agrees with MatchCells on the Y side.
func TestTableauIndexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const k = 4 // probes also draw ID k, which no constant holds
	for iter := 0; iter < 500; iter++ {
		nx, ny := rng.Intn(4), 1+rng.Intn(3)
		cfd := randomTableauCFD(rng, nx, ny, k)
		ix := NewTableauIndex(cfd, idOf)

		order := slices.Clone(ix.Order())
		slices.Sort(order)
		for ri := range cfd.Tableau {
			if ri >= len(order) || order[ri] != ri {
				t.Fatalf("iter %d: Order %v is not a permutation of %d rows", iter, ix.Order(), len(cfd.Tableau))
			}
		}

		for probe := 0; probe < 20; probe++ {
			x := make([]uint32, nx)
			for i := range x {
				x[i] = uint32(rng.Intn(k + 1))
			}
			y := make([]uint32, ny)
			for i := range y {
				y[i] = uint32(rng.Intn(k + 1))
			}
			xv, yv := valuesOf(x), valuesOf(y)
			var want []int
			for ri, row := range cfd.Tableau {
				if MatchCells(xv, row.X) {
					want = append(want, ri)
				}
				if got := ix.MatchY(ri, y); got != MatchCells(yv, row.Y) {
					t.Fatalf("iter %d: MatchY(row %d %s, %v) = %v, brute force disagrees", iter, ri, row, yv, got)
				}
			}
			got := ix.Match(nil, x)
			slices.Sort(got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d: Match(%v) = %v, brute force %v\ntableau:\n%s", iter, xv, got, want, cfd)
			}
		}
	}
}
