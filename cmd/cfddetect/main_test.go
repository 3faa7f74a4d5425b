package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const custCSV = `CC,AC,PN,NM,STR,CT,ZIP
01,908,1111111,Mike,Tree Ave.,NYC,07974
01,908,1111111,Rick,Tree Ave.,NYC,07974
01,212,2222222,Joe,Elm Str.,NYC,01202
01,212,2222222,Jim,Elm Str.,NYC,02404
01,215,3333333,Ben,Oak Ave.,PHI,02394
44,131,4444444,Ian,High St.,EDI,EH4 1DT
`

const figure2CFDs = `
[CC=44, ZIP] -> [STR]
[CC, AC, PN] -> [STR, CT, ZIP]
[CC=01, AC=908, PN] -> [STR, CT=MH, ZIP]
[CC=01, AC=212, PN] -> [STR, CT=NYC, ZIP]
`

func writeFixtures(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	data := filepath.Join(dir, "cust.csv")
	cfds := filepath.Join(dir, "cfds.txt")
	if err := os.WriteFile(data, []byte(custCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfds, []byte(figure2CFDs), 0o644); err != nil {
		t.Fatal(err)
	}
	return data, cfds
}

func TestRunFindsViolations(t *testing.T) {
	data, cfds := writeFixtures(t)
	for _, strategy := range []string{"direct", "sql", "merged"} {
		for _, form := range []string{"cnf", "dnf"} {
			code, err := run(data, cfds, strategy, form, false, false, 10, io.Discard)
			if err != nil {
				t.Fatalf("%s/%s: %v", strategy, form, err)
			}
			if code != 1 {
				t.Errorf("%s/%s: exit = %d, want 1 (violations found)", strategy, form, code)
			}
		}
	}
}

func TestRunCleanInstance(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "cust.csv")
	cfds := filepath.Join(dir, "cfds.txt")
	if err := os.WriteFile(data, []byte(custCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	// ϕ3 holds on the instance.
	if err := os.WriteFile(cfds, []byte("[CC=01, AC=215] -> [CT=PHI]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, err := run(data, cfds, "direct", "dnf", false, false, 10, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("exit = %d, want 0 for a satisfied set", code)
	}
}

func TestRunInconsistentSigma(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "cust.csv")
	cfds := filepath.Join(dir, "cfds.txt")
	if err := os.WriteFile(data, []byte(custCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfds, []byte("[CC] -> [CT=x]\n[CC] -> [CT=y]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, err := run(data, cfds, "direct", "dnf", false, false, 10, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Errorf("exit = %d, want 1 for an inconsistent Σ", code)
	}
}

// TestRunShowSQL: -show-sql prints each CFD's QC/QV pair, -explain its
// plans, and -max caps the listing per CFD, reporting how many were left
// out — CFD 1 has two constant-violating tuples (Mike, Rick).
func TestRunShowSQL(t *testing.T) {
	data, cfds := writeFixtures(t)
	var out bytes.Buffer
	if _, err := run(data, cfds, "sql", "dnf", true, true, 1, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"-- CFD 0: QC\n", "-- CFD 0: QV\n", "-- CFD 0 plans:\n", "  ... 1 more tuples\n"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if got := strings.Count(out.String(), "  tuple "); got != 1 {
		t.Errorf("-max 1 listed %d tuples, want 1:\n%s", got, out.String())
	}
}

func TestRunErrors(t *testing.T) {
	data, cfds := writeFixtures(t)
	if _, err := run("missing.csv", cfds, "direct", "dnf", false, false, 10, io.Discard); err == nil {
		t.Error("missing data file must error")
	}
	if _, err := run(data, "missing.txt", "direct", "dnf", false, false, 10, io.Discard); err == nil {
		t.Error("missing CFD file must error")
	}
	if _, err := run(data, cfds, "warp", "dnf", false, false, 10, io.Discard); err == nil {
		t.Error("unknown strategy must error")
	}
	if _, err := run(data, cfds, "direct", "xnf", false, false, 10, io.Discard); err == nil {
		t.Error("unknown form must error")
	}
	if code, err := run(data, cfds, "direct", "dnf", false, false, -1, io.Discard); err == nil || code != 2 {
		t.Errorf("-max -1: code=%d err=%v, want exit 2 with an error", code, err)
	}
}
