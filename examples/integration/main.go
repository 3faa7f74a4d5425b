// Data integration: the motivation from the paper's introduction —
// "dependencies that hold only in a subset of sources will hold only
// conditionally in the integrated data".
//
// Two customer databases are merged: a US source where area code
// determines city, and a UK source where zip code determines street.
// Neither FD holds globally on the integrated table, but both hold as
// CFDs conditioned on the country code — and those CFDs catch errors the
// global FDs would miss entirely.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	schema, err := repro.NewSchema("cust",
		repro.Attr("SRC"), repro.Attr("CC"), repro.Attr("AC"),
		repro.Attr("CT"), repro.Attr("STR"), repro.Attr("ZIP"))
	if err != nil {
		log.Fatal(err)
	}
	merged := repro.NewRelation(schema)
	insert := func(vals ...string) {
		if err := merged.Insert(vals); err != nil {
			log.Fatal(err)
		}
	}
	// US source: [AC] → [CT] holds locally.
	insert("us", "01", "908", "MH", "Tree Ave.", "07974")
	insert("us", "01", "908", "MH", "Oak Ave.", "07974")
	insert("us", "01", "212", "NYC", "5th Ave.", "01202")
	// UK source: [ZIP] → [STR] holds locally; area codes reuse US numbers!
	insert("uk", "44", "908", "EDI", "High St.", "EH4 1DT")
	insert("uk", "44", "908", "GLA", "Firth Rd.", "G1 1AA") // same AC, different city: fine in the UK
	insert("uk", "44", "131", "EDI", "High St.", "EH4 1DT")

	// The source-local FDs, read globally, FAIL on the integrated table:
	globalFD, err := repro.ParseCFD("[AC] -> [CT]")
	if err != nil {
		log.Fatal(err)
	}
	ok, err := repro.Satisfies(merged, globalFD)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("global FD [AC] -> [CT] holds on the integrated table: %v (the 908 area code exists in both countries)\n", ok)

	// Conditioned on the country code, they hold — the CFD formulation:
	sigma, err := repro.ParseCFDSet(`
[CC=01, AC] -> [CT]
[CC=44, ZIP] -> [STR]
`)
	if err != nil {
		log.Fatal(err)
	}
	ok, err = repro.SatisfiesSet(merged, sigma)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("conditional versions hold: %v\n\n", ok)

	// Reasoning across the integrated constraint set (Section 3): adding
	// the UK rule for a specific zip is implied and would be redundant.
	redundant, err := repro.ParseCFD("[CC=44, ZIP='EH4 1DT'] -> [STR]")
	if err != nil {
		log.Fatal(err)
	}
	implied, err := repro.Implies(schema, sigma, redundant)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Σ implies [CC=44, ZIP='EH4 1DT'] -> [STR]: %v\n", implied)

	cover, err := repro.MinimalCover(schema, append(sigma, redundant))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("minimal cover of Σ + the redundant CFD has %d constraints (back to the originals):\n", len(cover))
	for _, s := range cover {
		fmt.Printf("  %s\n", s)
	}
	fmt.Println()

	// Now corrupt the feed: a UK record arrives with a US-style city for
	// its zip — the global FDs are silent, the CFD catches it.
	insert("uk", "44", "908", "EDI", "WRONG St.", "EH4 1DT")
	res, err := repro.Detect(merged, sigma, repro.DetectOptions{Strategy: repro.StrategyDirect})
	if err != nil {
		log.Fatal(err)
	}
	for i, v := range res.PerCFD {
		if len(v.ConstTuples) > 0 || len(v.VariableKeys) > 0 {
			fmt.Printf("CFD %d (%s) violated by groups %v\n", i, sigma[i], v.VariableKeys)
		}
	}
}
