package cliutil

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const goodCSV = "CC,AC,PN\n01,908,1111111\n01,212,2222222\n"
const goodCFD = "[CC=01, AC] -> [PN]\n"

func TestLoadInputs(t *testing.T) {
	rel, sigma, err := LoadInputs(write(t, "data.csv", goodCSV), write(t, "sigma.cfd", goodCFD))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Errorf("relation has %d tuples, want 2", rel.Len())
	}
	if len(sigma) != 1 {
		t.Errorf("parsed %d CFDs, want 1", len(sigma))
	}
}

func TestLoadInputsMissingData(t *testing.T) {
	_, _, err := LoadInputs(filepath.Join(t.TempDir(), "absent.csv"), write(t, "sigma.cfd", goodCFD))
	if err == nil {
		t.Fatal("missing data file: no error")
	}
	if !os.IsNotExist(err) {
		t.Errorf("error %v does not report a missing file", err)
	}
}

func TestLoadInputsMissingCFD(t *testing.T) {
	_, _, err := LoadInputs(write(t, "data.csv", goodCSV), filepath.Join(t.TempDir(), "absent.cfd"))
	if err == nil {
		t.Fatal("missing CFD file: no error")
	}
	if !os.IsNotExist(err) {
		t.Errorf("error %v does not report a missing file", err)
	}
}

func TestLoadInputsMalformedCFD(t *testing.T) {
	for _, bad := range []string{
		"this is not a cfd\n",
		"[CC=01, AC] ->\n",        // no RHS
		"[CC=01, AC] -> [PN]\n]x", // trailing garbage line
	} {
		_, _, err := LoadInputs(write(t, "data.csv", goodCSV), write(t, "sigma.cfd", bad))
		if err == nil {
			t.Errorf("malformed CFD %q: no error", bad)
		}
	}
}

func TestLoadInputsRaggedCSV(t *testing.T) {
	ragged := "CC,AC,PN\n01,908,1111111\n01,212\n"
	_, _, err := LoadInputs(write(t, "data.csv", ragged), write(t, "sigma.cfd", goodCFD))
	if err == nil {
		t.Fatal("ragged CSV: no error")
	}
	// The error must name the offending line so the CLI message is usable.
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("ragged-row error %q does not name line 3", err)
	}
}

func TestLoadInputsEmptyCSV(t *testing.T) {
	_, _, err := LoadInputs(write(t, "data.csv", ""), write(t, "sigma.cfd", goodCFD))
	if err == nil {
		t.Fatal("empty CSV (no header): no error")
	}
}
