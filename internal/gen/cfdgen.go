package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/relation"
)

// Template identifies one of the semantic constraint families of
// Section 5 "CFDs". The attribute counts (NUMATTRs) match the families the
// paper describes: zip→state (2), zip+city→state (3), state+salary→tax
// rate (3), etc.
type Template int

const (
	// ZipToState: [ZIP] → [ST] (2 attributes — the Figure 9(f) CFD).
	ZipToState Template = iota
	// ZipCityToState: [ZIP, CT] → [ST] (3 attributes, constraint (b)).
	ZipCityToState
	// StateSalaryToTax: [ST, SA] → [TX] (3 attributes, constraint (c)).
	StateSalaryToTax
	// StateMaritalToExemptions: [ST, MR] → [EXS, EXM] (4 attributes).
	StateMaritalToExemptions
	// StateChildToExemption: [ST, CH] → [EXC] (3 attributes).
	StateChildToExemption
	// AreaCodeToState: [CC, AC] → [ST] (3 attributes, the f2 refinement).
	AreaCodeToState
	// PhoneToAddress: [CC, AC, PN] → [STR, CT, ZIP] (6 attributes, f1).
	PhoneToAddress
	// PhoneToStreet: [CC, AC, PN] → [STR] (4 attributes). Phone numbers
	// are near-unique, so this family supports very large tableaux — the
	// NUMATTRs=4 series of Figure 9(d) sweeps TABSZ up to 10K.
	PhoneToStreet
)

func (tp Template) String() string {
	switch tp {
	case ZipToState:
		return "zip->state"
	case ZipCityToState:
		return "zip,city->state"
	case StateSalaryToTax:
		return "state,salary->tax"
	case StateMaritalToExemptions:
		return "state,marital->exemptions"
	case StateChildToExemption:
		return "state,child->exemption"
	case AreaCodeToState:
		return "areacode->state"
	case PhoneToStreet:
		return "phone->street"
	default:
		return "phone->address"
	}
}

// Attrs returns the embedded FD of the template.
func (tp Template) Attrs() (lhs, rhs []string) {
	switch tp {
	case ZipToState:
		return []string{"ZIP"}, []string{"ST"}
	case ZipCityToState:
		return []string{"ZIP", "CT"}, []string{"ST"}
	case StateSalaryToTax:
		return []string{"ST", "SA"}, []string{"TX"}
	case StateMaritalToExemptions:
		return []string{"ST", "MR"}, []string{"EXS", "EXM"}
	case StateChildToExemption:
		return []string{"ST", "CH"}, []string{"EXC"}
	case AreaCodeToState:
		return []string{"CC", "AC"}, []string{"ST"}
	case PhoneToStreet:
		return []string{"CC", "AC", "PN"}, []string{"STR"}
	default:
		return []string{"CC", "AC", "PN"}, []string{"STR", "CT", "ZIP"}
	}
}

// TemplateByAttrs picks the template whose CFD spans n attributes
// (NUMATTRs of the paper: LHS + RHS attribute count). The chosen families
// have enough distinct projections to fill the paper's TABSZ sweeps
// (zip+city pairs and phone numbers are plentiful; state-level families
// like [ST,SA]→[TX] cap at a few hundred patterns).
func TemplateByAttrs(n int) (Template, error) {
	switch n {
	case 2:
		return ZipToState, nil
	case 3:
		return ZipCityToState, nil
	case 4:
		return PhoneToStreet, nil
	case 6:
		return PhoneToAddress, nil
	}
	return 0, fmt.Errorf("gen: no CFD template with %d attributes (have 2, 3, 4, 6)", n)
}

// CFDConfig are the CFD knobs of Section 5: which constraint (NUMATTRs via
// Template), TABSZ (pattern-tuple count) and NUMCONSTs (fraction of
// pattern tuples made of constants only; the rest contain variables).
type CFDConfig struct {
	Template Template
	TabSize  int
	// ConstPct ∈ [0,1]: fraction of all-constant pattern tuples
	// (NUMCONSTs; 1.0 = "100%" in the figures).
	ConstPct float64
	Seed     int64
}

// GenerateWorkloadCFD builds a CFD over the template's embedded FD whose
// pattern tuples are sampled from the CLEAN instance's distinct
// projections, so constants are semantically correct and every pattern
// matches real data. With probability 1−ConstPct a pattern tuple gets
// variables: a random PROPER nonempty subset of its LHS cells — and all
// its RHS cells — become '_' (keeping the row a true constraint on clean
// data). At least one LHS constant is kept (for single-attribute LHS the
// variables go to the RHS only): an all-'_' LHS row matches every tuple,
// and a workload full of duplicated all-wildcard rows is pathological —
// any minimal cover would collapse them to one. Duplicate rows produced
// by wildcarding are removed, so the tableau can be slightly smaller than
// TabSize when ConstPct < 1.
func GenerateWorkloadCFD(clean *relation.Relation, cfg CFDConfig) (*core.CFD, error) {
	lhs, rhs := cfg.Template.Attrs()
	if cfg.TabSize <= 0 {
		return nil, fmt.Errorf("gen: TabSize must be positive")
	}
	all := append(append([]string(nil), lhs...), rhs...)
	proj, err := clean.DistinctProjection(all)
	if err != nil {
		return nil, err
	}
	if len(proj) == 0 {
		return nil, fmt.Errorf("gen: instance has no tuples to sample patterns from")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rng.Shuffle(len(proj), func(i, j int) { proj[i], proj[j] = proj[j], proj[i] })
	n := cfg.TabSize
	if n > len(proj) {
		n = len(proj)
	}

	rows := make([]core.PatternRow, 0, n)
	seen := make(map[string]bool, n)
	for _, t := range proj[:n] {
		row := core.PatternRow{X: make([]core.Pattern, len(lhs)), Y: make([]core.Pattern, len(rhs))}
		for i := range lhs {
			row.X[i] = core.C(t[i])
		}
		for i := range rhs {
			row.Y[i] = core.C(t[len(lhs)+i])
		}
		if rng.Float64() >= cfg.ConstPct {
			// A "tuple with variables": wildcard a proper nonempty LHS
			// subset (none when |LHS| = 1) and the whole RHS.
			if len(lhs) >= 2 {
				wc := 1 + rng.Intn(1<<uint(len(lhs))-2) // in [1, 2^n-2]
				for i := range lhs {
					if wc&(1<<uint(i)) != 0 {
						row.X[i] = core.W()
					}
				}
			}
			for i := range rhs {
				row.Y[i] = core.W()
			}
		}
		key := row.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		rows = append(rows, row)
	}
	return core.NewCFD(lhs, rhs, rows...)
}

// AllZipStateCFD is the Figure 9(f) CFD: [ZIP] → [ST] with ALL zip→state
// pairs of the reference universe as constant pattern tuples ("we used all
// possible zip to state pairs, so as not to miss a violation"). tabSize
// caps the tableau (≤ NumZips); pass NumZips for the full 30K.
func AllZipStateCFD(tabSize int) *core.CFD {
	if tabSize <= 0 || tabSize > NumZips {
		tabSize = NumZips
	}
	rows := make([]core.PatternRow, 0, tabSize)
	for i := 0; i < tabSize; i++ {
		rows = append(rows, core.PatternRow{
			X: []core.Pattern{core.C(Zip(i))},
			Y: []core.Pattern{core.C(ZipState(i).Code)},
		})
	}
	return core.MustCFD([]string{"ZIP"}, []string{"ST"}, rows...)
}

// SemanticCFDs returns the full constraint set that clean tax data
// satisfies — one standard-FD-style CFD per template — used by the repair
// example and tests.
func SemanticCFDs() []*core.CFD {
	templates := []Template{
		ZipToState, ZipCityToState, StateSalaryToTax,
		StateMaritalToExemptions, StateChildToExemption, AreaCodeToState,
	}
	var out []*core.CFD
	for _, tp := range templates {
		lhs, rhs := tp.Attrs()
		row := core.PatternRow{X: make([]core.Pattern, len(lhs)), Y: make([]core.Pattern, len(rhs))}
		for i := range row.X {
			row.X[i] = core.W()
		}
		for i := range row.Y {
			row.Y[i] = core.W()
		}
		out = append(out, core.MustCFD(lhs, rhs, row))
	}
	return out
}
