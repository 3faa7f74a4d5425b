package repro

import (
	"io"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/gen"
	"repro/internal/relation"
	"repro/internal/sqlgen"
)

// The public facade is split by subsystem: this file holds the core
// model, reasoning, detection and workload generation;
// api_monitor.go the incremental monitor, observability and replication;
// api_cluster.go the sharded cluster; api_discovery.go CFD mining; and
// api_repair.go batch repair and the live repair suggester.

// Core model types.
type (
	// CFD is a conditional functional dependency (X → Y, Tp).
	CFD = core.CFD
	// Pattern is one tableau cell: a constant, '_' or '@'.
	Pattern = core.Pattern
	// PatternRow is one pattern tuple of a tableau.
	PatternRow = core.PatternRow
	// Simple is a normal-form CFD (single RHS attribute, single pattern).
	Simple = core.Simple
	// Violation is a detected inconsistency (constant or variable kind).
	Violation = core.Violation

	// Schema, Relation, Tuple, Value, Attribute and Domain form the data
	// model; see NewSchema and ReadCSV.
	Schema    = relation.Schema
	Relation  = relation.Relation
	Tuple     = relation.Tuple
	Value     = relation.Value
	Attribute = relation.Attribute
	Domain    = relation.Domain
)

// Pattern constructors.
var (
	// Const builds a constant pattern cell.
	Const = core.C
	// Wildcard builds the unnamed-variable ('_') cell.
	Wildcard = core.W
)

// Violation kinds (see Violation.Kind).
const (
	ConstViolation    = core.ConstViolation
	VariableViolation = core.VariableViolation
)

// NewCFD builds and validates a CFD from attribute lists and pattern rows.
func NewCFD(lhs, rhs []string, rows ...PatternRow) (*CFD, error) {
	return core.NewCFD(lhs, rhs, rows...)
}

// ParseCFD parses one line of the text notation, e.g.
// "[CC=01, AC=908, PN] -> [STR, CT=MH, ZIP]".
func ParseCFD(line string) (*CFD, error) { return core.ParseCFD(line) }

// ParseCFDSet parses a multi-line CFD file (one pattern row per line,
// '#' comments), merging rows that share an embedded FD into tableaux.
func ParseCFDSet(text string) ([]*CFD, error) { return core.ParseSet(text) }

// FormatCFDSet renders a CFD set in the notation ParseCFDSet accepts.
func FormatCFDSet(sigma []*CFD) string { return core.FormatSet(sigma) }

// NewSchema builds a relation schema from attribute definitions.
func NewSchema(name string, attrs ...Attribute) (*Schema, error) {
	return relation.NewSchema(name, attrs...)
}

// Attr is shorthand for an attribute with an unbounded domain.
func Attr(name string) Attribute { return relation.Attr(name) }

// Enum builds a finite domain (the source of the paper's NP-hardness
// results, and of inference rules FD7/FD8).
func Enum(name string, values ...Value) *Domain { return relation.Enum(name, values...) }

// NewRelation returns an empty instance of a schema.
func NewRelation(schema *Schema) *Relation { return relation.New(schema) }

// ReadCSV loads a relation from CSV (first record is the header).
func ReadCSV(r io.Reader, schemaName string) (*Relation, error) {
	return relation.ReadCSV(r, schemaName)
}

// WriteCSV writes a relation as CSV with a header row.
func WriteCSV(w io.Writer, rel *Relation) error { return relation.WriteCSV(w, rel) }

// Satisfies reports I ⊨ ϕ (Section 2 semantics).
func Satisfies(rel *Relation, cfd *CFD) (bool, error) { return core.Satisfies(rel, cfd) }

// SatisfiesSet reports I ⊨ Σ.
func SatisfiesSet(rel *Relation, sigma []*CFD) (bool, error) {
	return core.SatisfiesSet(rel, sigma)
}

// FindViolations lists every violation of ϕ in the instance using the
// indexed detector.
func FindViolations(rel *Relation, cfd *CFD) ([]Violation, error) {
	return detect.FindDetailed(rel, cfd)
}

// Consistent decides whether Σ admits a nonempty instance (Theorem 3.2
// regime) and returns a single-tuple witness when it does.
func Consistent(schema *Schema, sigma []*CFD) (bool, map[string]Value, error) {
	return core.Consistent(schema, sigma)
}

// Implies decides Σ ⊨ ϕ (Theorem 3.5 regime).
func Implies(schema *Schema, sigma []*CFD, phi *CFD) (bool, error) {
	return core.Implies(schema, sigma, phi)
}

// Equivalent decides Σ1 ≡ Σ2.
func Equivalent(schema *Schema, sigma1, sigma2 []*CFD) (bool, error) {
	return core.Equivalent(schema, sigma1, sigma2)
}

// MinimalCover computes a minimal cover of Σ (Figure 4 of the paper);
// the empty set is returned when Σ is inconsistent.
func MinimalCover(schema *Schema, sigma []*CFD) ([]*Simple, error) {
	return core.MinimalCover(schema, sigma)
}

// CoverToCFDs converts a minimal cover back to CFDs with merged tableaux.
func CoverToCFDs(cover []*Simple) []*CFD { return core.CoverToCFDs(cover) }

// Detection (Section 4).
type (
	// DetectOptions selects the strategy and SQL form.
	DetectOptions = detect.Options
	// DetectResult holds canonical per-CFD violations.
	DetectResult = detect.Result
	// CFDViolations is one CFD's detection outcome.
	CFDViolations = detect.CFDViolations
)

// Detection strategies.
const (
	// StrategyDirect is the pure-Go hash detector.
	StrategyDirect = detect.Direct
	// StrategySQLPerCFD runs one generated (QC, QV) pair per CFD.
	StrategySQLPerCFD = detect.SQLPerCFD
	// StrategySQLMerged runs the merged two-query plan of Section 4.2.
	StrategySQLMerged = detect.SQLMerged
)

// SQL WHERE-clause forms.
const (
	// FormCNF keeps the Figure 5 conjunctive form (slow under OR).
	FormCNF = sqlgen.CNF
	// FormDNF expands to hash-joinable disjuncts (the paper's
	// recommendation).
	FormDNF = sqlgen.DNF
)

// Detect finds all violations of Σ in the instance.
func Detect(rel *Relation, sigma []*CFD, opts DetectOptions) (*DetectResult, error) {
	return detect.Detect(rel, sigma, opts)
}

// GenerateQC returns the constant-violation SQL (Figure 5) for a CFD, with
// the tableau encoded as table tabTable.
func GenerateQC(cfd *CFD, dataTable, tabTable string, form sqlgen.Form) (string, error) {
	return sqlgen.QC(cfd, dataTable, tabTable, sqlgen.Default(form))
}

// GenerateQV returns the variable-violation SQL (Figure 5) for a CFD.
func GenerateQV(cfd *CFD, dataTable, tabTable string, form sqlgen.Form) (string, error) {
	return sqlgen.QV(cfd, dataTable, tabTable, sqlgen.Default(form))
}

// ExplainDetection renders the physical plans of a CFD's detection query
// pair against the instance — the optimizer's-eye view of the CNF/DNF
// effect the paper's experiments measure (nested loops vs hash joins).
func ExplainDetection(rel *Relation, cfd *CFD, form sqlgen.Form) (string, error) {
	return detect.Explain(rel, cfd, form)
}

// Workload generation (Section 5).
type (
	// TaxConfig are the data knobs SZ and NOISE.
	TaxConfig = gen.TaxConfig
	// TaxData is a generated workload (clean, dirty, ground truth).
	TaxData = gen.TaxData
	// CFDConfig are the CFD knobs (template/NUMATTRs, TABSZ, NUMCONSTs).
	CFDConfig = gen.CFDConfig
	// CFDTemplate identifies a semantic constraint family.
	CFDTemplate = gen.Template
)

// TaxSchema returns the 15-attribute tax-records schema of Section 5.
func TaxSchema() *Schema { return gen.TaxSchema() }

// GenerateTax builds a tax-records workload (deterministic in the seed).
func GenerateTax(cfg TaxConfig) *TaxData { return gen.GenerateTax(cfg) }

// GenerateWorkloadCFD samples a CFD workload from a clean instance.
func GenerateWorkloadCFD(clean *Relation, cfg CFDConfig) (*CFD, error) {
	return gen.GenerateWorkloadCFD(clean, cfg)
}

// CFDTemplateByAttrs picks the template spanning n attributes (NUMATTRs).
func CFDTemplateByAttrs(n int) (CFDTemplate, error) { return gen.TemplateByAttrs(n) }

// SemanticTaxCFDs returns the constraint set clean tax data satisfies.
func SemanticTaxCFDs() []*CFD { return gen.SemanticCFDs() }
