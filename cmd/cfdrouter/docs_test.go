package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro"
	"repro/internal/httpapi"
	"repro/internal/node"
)

var update = flag.Bool("update", false, "rewrite the generated endpoint list in docs/operations.md")

// TestEndpointDocs keeps the endpoint list in docs/operations.md
// generated, not remembered: both daemons' route tables are rendered
// between the markers and compared with what is checked in. A route
// added, dropped or re-documented without regenerating fails here;
//
//	go test ./cmd/cfdrouter -run TestEndpointDocs -update
//
// rewrites the block.
func TestEndpointDocs(t *testing.T) {
	const (
		file  = "../../docs/operations.md"
		begin = "<!-- endpoints:begin — generated from the route tables; go test ./cmd/cfdrouter -run TestEndpointDocs -update -->\n"
		end   = "<!-- endpoints:end -->\n"
	)
	var want strings.Builder
	table := func(title string, routes []httpapi.Route) {
		fmt.Fprintf(&want, "\n**%s**\n\n| Endpoint | Answers |\n|---|---|\n", title)
		for _, rt := range routes {
			fmt.Fprintf(&want, "| `%s %s%s` | %s |\n", rt.Method, httpapi.Prefix, rt.Path, strings.ReplaceAll(rt.Doc, "|", `\|`))
		}
	}
	table("cfdserve", node.New(nil, nil).Routes())
	table("cfdrouter", newRouterServer(nil, 0, repro.NewMetricsRegistry()).routes())
	want.WriteString("\n")

	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	i, j := strings.Index(doc, begin), strings.Index(doc, end)
	if i < 0 || j < i {
		t.Fatalf("%s has no %q … %q block", file, strings.TrimSpace(begin), strings.TrimSpace(end))
	}
	i += len(begin)
	if doc[i:j] == want.String() {
		return
	}
	if !*update {
		t.Fatalf("%s: the endpoint list drifted from the route tables (rerun with -update):\n--- checked in\n%s--- route tables\n%s", file, doc[i:j], want.String())
	}
	if err := os.WriteFile(file, []byte(doc[:i]+want.String()+doc[j:]), 0o644); err != nil {
		t.Fatal(err)
	}
}
