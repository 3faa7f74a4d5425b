package relation

// Columns is an instance in column-major value-ID form: Cols[a][t] is
// tuple t's value in column a, as an index into that column's value
// table Vals[a]. IDs are dense per column — two cells of a column hold
// the same ID exactly when they hold the same value — and carry no
// order, so code that orders values compares Vals, never IDs.
// Discovery's kernel runs on this shape; a Relation interns into it
// (Relation.Columns), and a live monitor copies its own value IDs into
// it without materializing a tuple.
type Columns struct {
	Schema *Schema
	Cols   [][]int32
	Vals   [][]Value
}

// Len returns the number of tuples.
func (c *Columns) Len() int {
	if len(c.Cols) == 0 {
		return 0
	}
	return len(c.Cols[0])
}

// Columns interns r into column-major value-ID form, column by column,
// handing out each column's IDs in first-seen order. All columns share
// one backing array, and the value map holds one column at a time.
func (r *Relation) Columns() *Columns {
	n, width := len(r.Tuples), r.Schema.Len()
	c := &Columns{Schema: r.Schema, Cols: make([][]int32, width), Vals: make([][]Value, width)}
	cells := make([]int32, n*width)
	ids := make(map[Value]int32)
	for a := range c.Cols {
		clear(ids)
		col := cells[a*n : (a+1)*n : (a+1)*n]
		var vals []Value
		for t, tu := range r.Tuples {
			id, ok := ids[tu[a]]
			if !ok {
				id = int32(len(vals))
				ids[tu[a]] = id
				vals = append(vals, tu[a])
			}
			col[t] = id
		}
		c.Cols[a], c.Vals[a] = col, vals
	}
	return c
}
