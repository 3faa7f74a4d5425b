// Command cfddetect finds CFD violations in a CSV instance — the paper's
// Section 4 detection pipeline as a tool.
//
// Usage:
//
//	cfddetect -data tax.csv -cfds cfds.txt
//	cfddetect -data tax.csv -cfds cfds.txt -strategy merged -form cnf
//	cfddetect -data tax.csv -cfds cfds.txt -show-sql
//
// Diagnostics go to stderr through log/slog: -log-level sets the
// threshold (debug, info, warn, error) and -log-json switches the
// stream to JSON lines; results stay on stdout.
//
// Exit status is 2 on error, 1 when violations were found or Σ is
// inconsistent, 0 when clean.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro"
	"repro/internal/cliutil"
)

func main() {
	var (
		dataPath = flag.String("data", "", "CSV instance to check (required)")
		cfdPath  = flag.String("cfds", "", "CFD file in text notation (required)")
		strategy = flag.String("strategy", "direct", "detection strategy: direct | sql | merged")
		form     = flag.String("form", "dnf", "SQL WHERE form: cnf | dnf")
		showSQL  = flag.Bool("show-sql", false, "print the generated detection queries")
		explain  = flag.Bool("explain", false, "print the physical query plans (nested loop vs hash join)")
		maxShow  = flag.Int("max", 10, "max violations to print per CFD")
		logLevel = flag.String("log-level", "info", "log threshold: debug, info, warn or error")
		logJSON  = flag.Bool("log-json", false, "write logs to stderr as JSON lines instead of text")
	)
	flag.Parse()
	lg, err := cliutil.NewLogger(*logLevel, *logJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfddetect:", err)
		os.Exit(2)
	}
	if *dataPath == "" || *cfdPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	code, err := run(*dataPath, *cfdPath, *strategy, *form, *showSQL, *explain, *maxShow, os.Stdout)
	if err != nil {
		lg.Error("run failed", "error", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run is the batch detection pipeline: load I and Σ, check Σ's
// consistency, then detect with the chosen strategy, printing to out.
func run(dataPath, cfdPath, strategy, form string, showSQL, explain bool, maxShow int, out io.Writer) (int, error) {
	if maxShow < 0 {
		return 2, fmt.Errorf("-max must be >= 0, got %d", maxShow)
	}
	rel, sigma, err := cliutil.LoadInputs(dataPath, cfdPath)
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(out, "loaded %d tuples, %d CFDs\n", rel.Len(), len(sigma))

	// Consistency first — the paper's point: inconsistent Σ needs no data
	// validation at all.
	ok, _, err := repro.Consistent(rel.Schema, sigma)
	if err != nil {
		return 2, err
	}
	if !ok {
		fmt.Fprintln(out, "the CFD set is INCONSISTENT: no nonempty instance can satisfy it; fix the constraints first")
		return 1, nil
	}

	opts := repro.DetectOptions{}
	switch strategy {
	case "direct":
		opts.Strategy = repro.StrategyDirect
	case "sql":
		opts.Strategy = repro.StrategySQLPerCFD
	case "merged":
		opts.Strategy = repro.StrategySQLMerged
	default:
		return 2, fmt.Errorf("unknown strategy %q", strategy)
	}
	switch form {
	case "cnf":
		opts.Form = repro.FormCNF
	case "dnf":
		opts.Form = repro.FormDNF
	default:
		return 2, fmt.Errorf("unknown form %q", form)
	}

	if showSQL {
		for i, c := range sigma {
			qc, err := repro.GenerateQC(c, "R", fmt.Sprintf("T%d", i), opts.Form)
			if err != nil {
				return 2, err
			}
			qv, err := repro.GenerateQV(c, "R", fmt.Sprintf("T%d", i), opts.Form)
			if err != nil {
				return 2, err
			}
			fmt.Fprintf(out, "-- CFD %d: QC\n%s\n-- CFD %d: QV\n%s\n\n", i, qc, i, qv)
		}
	}
	if explain {
		for i, c := range sigma {
			plan, err := repro.ExplainDetection(rel, c, opts.Form)
			if err != nil {
				return 2, err
			}
			fmt.Fprintf(out, "-- CFD %d plans:\n%s\n", i, plan)
		}
	}

	res, err := repro.Detect(rel, sigma, opts)
	if err != nil {
		return 2, err
	}
	if res.Clean() {
		fmt.Fprintln(out, "no violations: the instance satisfies Σ")
		return 0, nil
	}
	for i, v := range res.PerCFD {
		if len(v.ConstTuples) == 0 && len(v.VariableKeys) == 0 {
			continue
		}
		fmt.Fprintf(out, "CFD %d violated: %d constant-violating tuples, %d conflicting groups\n",
			i, len(v.ConstTuples), len(v.VariableKeys))
		for j, t := range v.ConstTuples {
			if j >= maxShow {
				fmt.Fprintf(out, "  ... %d more tuples\n", len(v.ConstTuples)-maxShow)
				break
			}
			fmt.Fprintf(out, "  tuple %d: %s\n", t, strings.Join(rel.Tuples[t], ", "))
		}
		for j, k := range v.VariableKeys {
			if j >= maxShow {
				fmt.Fprintf(out, "  ... %d more groups\n", len(v.VariableKeys)-maxShow)
				break
			}
			fmt.Fprintf(out, "  group X = (%s)\n", strings.Join(k, ", "))
		}
	}
	return 1, nil
}
