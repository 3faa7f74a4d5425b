package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro"
)

const dirtyCSV = `AC,CT
908,NYC
908,MH
908,MH
212,NYC
`

func TestRunRepairsAndWrites(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data.csv")
	cfds := filepath.Join(dir, "cfds.txt")
	out := filepath.Join(dir, "repaired.csv")
	if err := os.WriteFile(data, []byte(dirtyCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfds, []byte("[AC=908] -> [CT=MH]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, err := run(data, cfds, out, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("exit = %d, want 0 (certified repair)", code)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rel, err := repro.ReadCSV(f, "R")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Tuples[0][1] != "MH" {
		t.Errorf("repaired CT = %q, want MH", rel.Tuples[0][1])
	}
	// Re-detect: must be clean now.
	sigma, err := repro.ParseCFDSet("[AC=908] -> [CT=MH]\n")
	if err != nil {
		t.Fatal(err)
	}
	ok, err := repro.SatisfiesSet(rel, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("repaired CSV still violates Σ")
	}
}

// TestRunCertifiesTaxWorkload: the paper's workload — generated tax
// records at 4 % noise under the semantic Σ — must come out certified
// (exit 0) and satisfy Σ when read back.
func TestRunCertifiesTaxWorkload(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "tax.csv")
	cfds := filepath.Join(dir, "cfds.txt")
	out := filepath.Join(dir, "repaired.csv")
	tax := repro.GenerateTax(repro.TaxConfig{Size: 2000, Noise: 0.04, Seed: 9})
	sigma := repro.SemanticTaxCFDs()
	f, err := os.Create(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := repro.WriteCSV(f, tax.Dirty); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfds, []byte(repro.FormatCFDSet(sigma)), 0o644); err != nil {
		t.Fatal(err)
	}
	code, err := run(data, cfds, out, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("exit = %d, want 0 (certified repair)", code)
	}
	g, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	rel, err := repro.ReadCSV(g, "tax")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != tax.Dirty.Len() {
		t.Fatalf("repaired instance has %d rows, want %d", rel.Len(), tax.Dirty.Len())
	}
	ok, err := repro.SatisfiesSet(rel, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("repaired CSV still violates Σ")
	}
}

func TestRunRejectsInconsistentSigma(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data.csv")
	cfds := filepath.Join(dir, "cfds.txt")
	if err := os.WriteFile(data, []byte(dirtyCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfds, []byte("[AC] -> [CT=x]\n[AC] -> [CT=y]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run(data, cfds, filepath.Join(dir, "out.csv"), 0, false); err == nil {
		t.Error("inconsistent Σ must be rejected")
	}
}

func TestRunMissingInputs(t *testing.T) {
	dir := t.TempDir()
	if _, err := run(filepath.Join(dir, "no.csv"), filepath.Join(dir, "no.txt"), filepath.Join(dir, "out.csv"), 0, false); err == nil {
		t.Error("missing inputs must error")
	}
}
