// Package cliutil holds small helpers shared by the cfd* command-line
// tools.
package cliutil

import (
	"os"

	"repro/internal/core"
	"repro/internal/relation"
)

// LoadInputs reads the standard input pair of the cfd* commands: a CSV
// instance (header row becomes the schema) and a CFD set in the text
// notation.
func LoadInputs(dataPath, cfdPath string) (*relation.Relation, []*core.CFD, error) {
	rel, err := LoadCSV(dataPath)
	if err != nil {
		return nil, nil, err
	}
	sigma, err := LoadCFDs(cfdPath)
	if err != nil {
		return nil, nil, err
	}
	return rel, sigma, nil
}

// LoadCSV reads a CSV instance; the header row becomes the schema. It
// does not intern: a one-shot command scans and exits, and a monitor
// seeded from the relation interns every value once in its bulk build.
func LoadCSV(dataPath string) (*relation.Relation, error) {
	f, err := os.Open(dataPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return relation.ReadCSV(f, "R")
}

// LoadCFDs reads a CFD set in the text notation. Durable commands use it
// alone when the monitor state comes from a WAL directory and the CSV is
// not needed.
func LoadCFDs(cfdPath string) ([]*core.CFD, error) {
	text, err := os.ReadFile(cfdPath)
	if err != nil {
		return nil, err
	}
	return core.ParseSet(string(text))
}
