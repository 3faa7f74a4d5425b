package main

import (
	"fmt"
	"io"
	"sort"
)

// print writes the run's metrics, one per line with unit and sample
// count, above the result line: the end-to-end set of an untraced run,
// or the per-layer table of a traced one.
func (r *report) print(w io.Writer, workload string, traced bool) {
	set, decls, title := r.e2e, endToEndMetrics, "end-to-end"
	if traced {
		set, decls, title = r.layer, perLayerMetrics, "per-layer"
	}
	unit := map[string]string{}
	for _, d := range decls {
		unit[d.name] = d.unit
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s: %s metrics (attempted %d, failed %d, oracle mismatches %d)\n",
		workload, title, r.attempted, r.failed, len(r.oracle))
	for _, n := range names {
		s := set[n]
		fmt.Fprintf(w, "%-42s %14.4f %-6s n=%d\n", n, s.value, unit[n], s.n)
	}
}
