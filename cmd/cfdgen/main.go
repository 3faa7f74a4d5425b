// Command cfdgen emits the paper's experimental workload (Section 5):
// a synthetic tax-records CSV with injected noise, and a CFD file in the
// library's text notation.
//
// Usage:
//
//	cfdgen -sz 10000 -noise 0.05 -out tax.csv -cfdout cfds.txt
//	cfdgen -sz 100000 -noise 0.05 -numattrs 3 -tabsz 1000 -constpct 1.0 ...
//
// Without -numattrs the semantic constraint set (zip→state, state+salary→
// tax rate, …) is written; with it, a single workload CFD with the paper's
// TABSZ / NUMCONSTs knobs is generated instead.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
)

func main() {
	var (
		sz       = flag.Int("sz", 10000, "number of tax records (SZ)")
		noise    = flag.Float64("noise", 0.05, "fraction of tuples corrupted (NOISE)")
		seed     = flag.Int64("seed", 1, "generator seed")
		out      = flag.String("out", "tax.csv", "output CSV for the (dirty) instance")
		cleanOut = flag.String("clean", "", "optional output CSV for the clean instance")
		cfdOut   = flag.String("cfdout", "cfds.txt", "output file for the CFD set")
		numAttrs = flag.Int("numattrs", 0, "NUMATTRs for a single workload CFD (0 = semantic set)")
		tabsz    = flag.Int("tabsz", 1000, "TABSZ: pattern tuples in the workload CFD")
		constPct = flag.Float64("constpct", 1.0, "NUMCONSTs: fraction of all-constant pattern tuples")
	)
	flag.Parse()
	if err := run(*sz, *noise, *seed, *out, *cleanOut, *cfdOut, *numAttrs, *tabsz, *constPct); err != nil {
		fmt.Fprintln(os.Stderr, "cfdgen:", err)
		os.Exit(1)
	}
}

// run validates the knobs and builds Σ before it creates any file, so a
// refused run leaves nothing behind.
func run(sz int, noise float64, seed int64, out, cleanOut, cfdOut string, numAttrs, tabsz int, constPct float64) error {
	if sz < 1 {
		return fmt.Errorf("-sz must be >= 1, got %d", sz)
	}
	if noise < 0 || noise > 1 {
		return fmt.Errorf("-noise must be in [0, 1], got %v", noise)
	}
	data := repro.GenerateTax(repro.TaxConfig{Size: sz, Noise: noise, Seed: seed})
	var sigma []*repro.CFD
	if numAttrs == 0 {
		sigma = repro.SemanticTaxCFDs()
	} else {
		tpl, err := repro.CFDTemplateByAttrs(numAttrs)
		if err != nil {
			return err
		}
		cfd, err := repro.GenerateWorkloadCFD(data.Clean, repro.CFDConfig{
			Template: tpl, TabSize: tabsz, ConstPct: constPct, Seed: seed + 1,
		})
		if err != nil {
			return err
		}
		sigma = []*repro.CFD{cfd}
	}

	if err := writeCSV(out, data.Dirty); err != nil {
		return err
	}
	fmt.Printf("wrote %d dirty records to %s (%d cells corrupted)\n", data.Dirty.Len(), out, len(data.Changes))
	if cleanOut != "" {
		if err := writeCSV(cleanOut, data.Clean); err != nil {
			return err
		}
		fmt.Printf("wrote clean records to %s\n", cleanOut)
	}
	f, err := os.Create(cfdOut)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.WriteString(repro.FormatCFDSet(sigma)); err != nil {
		return err
	}
	rows := 0
	for _, c := range sigma {
		rows += len(c.Tableau)
	}
	fmt.Printf("wrote %d CFDs (%d pattern tuples) to %s\n", len(sigma), rows, cfdOut)
	return nil
}

func writeCSV(path string, rel *repro.Relation) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return repro.WriteCSV(f, rel)
}
