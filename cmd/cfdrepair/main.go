// Command cfdrepair repairs a CSV instance with respect to a CFD set
// (the paper's Section 6, NP-complete by Theorem 6.1) and writes the
// repaired instance.
//
// Usage:
//
//	cfdrepair -data tax.csv -cfds cfds.txt -out repaired.csv
//
// cfdrepair runs the batch repair engine (repro.Repair) over the whole
// instance: each pass detects every violation, plans one consistent set
// of cell edits — constant violations force pattern constants, variable
// violations merge a group's RHS cells onto its plurality value, and a
// cell rewritten too often has its violation broken on the LHS instead —
// and applies it, until a pass finds no violation. A Σ that no instance
// can satisfy is refused before the first pass. The live counterpart,
// one cost-ranked suggestion per violation against a running node, is
// cfdserve's GET /v1/repairs and POST /v1/repairs/apply.
//
// Exit status is 2 on error, 1 when the pass budget ran out before
// I′ ⊨ Σ was certified, 0 on a certified repair.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/cliutil"
)

func main() {
	var (
		dataPath  = flag.String("data", "", "CSV instance to repair (required)")
		cfdPath   = flag.String("cfds", "", "CFD file in text notation (required)")
		outPath   = flag.String("out", "repaired.csv", "output CSV for the repaired instance")
		maxPasses = flag.Int("maxpasses", 0, "detect-resolve pass budget (0 = default)")
		verbose   = flag.Bool("v", false, "print every applied change")
	)
	flag.Parse()
	if *dataPath == "" || *cfdPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	code, err := run(*dataPath, *cfdPath, *outPath, *maxPasses, *verbose)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfdrepair:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(dataPath, cfdPath, outPath string, maxPasses int, verbose bool) (int, error) {
	rel, sigma, err := cliutil.LoadInputs(dataPath, cfdPath)
	if err != nil {
		return 2, err
	}
	res, err := repro.Repair(rel, sigma, repro.RepairOptions{MaxPasses: maxPasses})
	if err != nil {
		return 2, err
	}
	if verbose {
		for _, ch := range res.Changes {
			fmt.Printf("row %d: %s: %q -> %q\n", ch.Row, ch.Attr, ch.From, ch.To)
		}
	}
	fmt.Printf("repair: %d changes over %d passes, cost %.0f, satisfied=%v\n",
		len(res.Changes), res.Passes, res.Cost, res.Satisfied)

	out, err := os.Create(outPath)
	if err != nil {
		return 2, err
	}
	defer out.Close()
	if err := repro.WriteCSV(out, res.Repaired); err != nil {
		return 2, err
	}
	fmt.Printf("wrote repaired instance to %s\n", outPath)
	if !res.Satisfied {
		return 1, nil
	}
	return 0, nil
}
