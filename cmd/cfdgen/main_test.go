package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

func TestRunSemanticSet(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "tax.csv")
	clean := filepath.Join(dir, "clean.csv")
	cfds := filepath.Join(dir, "cfds.txt")
	if err := run(500, 0.05, 1, out, clean, cfds, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{out, clean, cfds} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("missing output %s: %v", p, err)
		}
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rel, err := repro.ReadCSV(f, "tax")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 500 {
		t.Errorf("CSV has %d rows, want 500", rel.Len())
	}
	text, err := os.ReadFile(cfds)
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := repro.ParseCFDSet(string(text))
	if err != nil {
		t.Fatalf("emitted CFD file does not parse: %v", err)
	}
	if len(sigma) != len(repro.SemanticTaxCFDs()) {
		t.Errorf("emitted %d CFDs, want the semantic set", len(sigma))
	}
}

func TestRunWorkloadCFD(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "tax.csv")
	cfds := filepath.Join(dir, "cfds.txt")
	if err := run(800, 0.0, 2, out, "", cfds, 3, 50, 1.0); err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(cfds)
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := repro.ParseCFDSet(string(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(sigma) != 1 {
		t.Fatalf("want a single workload CFD, got %d", len(sigma))
	}
	if len(sigma[0].Tableau) != 50 {
		t.Errorf("tableau = %d rows, want 50", len(sigma[0].Tableau))
	}
	if got := strings.Join(sigma[0].LHS, ","); got != "ZIP,CT" {
		t.Errorf("NUMATTRs=3 template LHS = %s", got)
	}
}

// TestRunBadNumAttrs: a refused run exits before it creates any file —
// an unknown NUMATTRs template, like an out-of-range -sz or -noise.
func TestRunBadNumAttrs(t *testing.T) {
	for _, tc := range []struct {
		name     string
		sz       int
		noise    float64
		numAttrs int
	}{
		{"numattrs=5", 10, 0, 5},
		{"numattrs=9", 10, 0, 9},
		{"sz=0", 0, 0, 0},
		{"noise=1.5", 10, 1.5, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			out, clean, cfds := filepath.Join(dir, "t.csv"), filepath.Join(dir, "clean.csv"), filepath.Join(dir, "c.txt")
			if err := run(tc.sz, tc.noise, 1, out, clean, cfds, tc.numAttrs, 10, 1); err == nil {
				t.Fatal("run must fail")
			}
			for _, p := range []string{out, clean, cfds} {
				if _, err := os.Stat(p); !errors.Is(err, fs.ErrNotExist) {
					t.Errorf("%s exists after a refused run (stat err %v)", filepath.Base(p), err)
				}
			}
		})
	}
}
