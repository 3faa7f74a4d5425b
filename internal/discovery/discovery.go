// Package discovery implements automated CFD discovery from data — the
// future-work item of the paper's Section 7 ("we are developing automated
// methods for discovering CFDs"), in the style the follow-up literature
// later standardized (constant-pattern mining à la CFDMiner plus
// FD-style candidate search).
//
// For every candidate embedded FD X → A with |X| ≤ MaxLHS the miner:
//
//  1. emits the all-wildcard CFD when the FD holds on the whole instance
//     (with classic minimality pruning: X is not emitted when some proper
//     subset already determines A);
//  2. otherwise mines constant patterns: X-groups of at least MinSupport
//     tuples whose A-values agree with confidence ≥ MinConfidence become
//     pattern tuples (x̄ → a), merged into one CFD per embedded FD.
//
// Discovered CFDs with MinConfidence = 1 are guaranteed to hold on the
// input instance (property-tested). The search is exponential in MaxLHS
// only, matching the fixed-schema regime of the paper's analyses.
//
// There is exactly one mining code path, and it is streaming: a Miner
// (see miner.go) subscribes to the group-statistics substrate of an
// incremental.Monitor and re-scores only the X-groups each ChangeSet
// touched. Discover is the from-scratch entry point — it seeds a
// throwaway Monitor with the instance as one bulk batch and reads the
// Miner's initial state — so batch and streaming discovery cannot
// drift apart.
package discovery

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/incremental"
	"repro/internal/relation"
)

// Config tunes the miner.
type Config struct {
	// MaxLHS bounds the LHS size of candidate FDs (default 1).
	MaxLHS int
	// MinSupport is the minimum number of tuples an X-group needs before
	// it may yield a constant pattern (default 2, so single-tuple groups
	// never generalize).
	MinSupport int
	// MinConfidence is the fraction of a group's tuples that must agree
	// on the RHS value (default 1: exact CFDs only).
	MinConfidence float64
	// MaxPatterns caps the tableau size per embedded FD, keeping the most
	// supported patterns (0 = unlimited).
	MaxPatterns int
}

// Validate rejects tunables no default can repair: a confidence above 1
// can never be met by any group, NaN is no confidence at all (and would
// make two equal configs compare unequal), and a negative pattern cap
// is meaningless (0 already means unlimited). Discover and NewMiner
// validate on entry.
func (c Config) Validate() error {
	if !(c.MinConfidence <= 1) {
		return fmt.Errorf("discovery: MinConfidence %g must be a number at most 1", c.MinConfidence)
	}
	if c.MaxPatterns < 0 {
		return fmt.Errorf("discovery: negative MaxPatterns %d (0 means unlimited)", c.MaxPatterns)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.MaxLHS <= 0 {
		c.MaxLHS = 1
	}
	if c.MinSupport <= 0 {
		c.MinSupport = 2
	}
	if c.MinConfidence <= 0 {
		c.MinConfidence = 1
	}
	return c
}

// Discovered is one mined CFD with its mining metadata.
type Discovered struct {
	CFD *core.CFD
	// IsFD reports that the CFD is an all-wildcard (standard FD) find.
	IsFD bool
	// Support holds, per tableau row, the number of matching tuples.
	Support []int
}

// Discover mines CFDs from the instance. It is the bulk entry of the
// one streaming code path: the instance is loaded into a throwaway
// monitor as a single batch, a Miner is seeded over it, and its initial
// mined set is returned.
func Discover(rel *relation.Relation, cfg Config) ([]Discovered, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rel.Len() == 0 {
		return nil, fmt.Errorf("discovery: empty instance")
	}
	m, err := incremental.Load(rel, nil, incremental.Options{})
	if err != nil {
		return nil, err
	}
	mi, err := NewMiner(m, cfg)
	if err != nil {
		return nil, err
	}
	defer mi.Close()
	return mi.Mined()
}

// subsetsUpTo enumerates nonempty subsets of attrs with size ≤ k, smaller
// sizes first (so minimality pruning sees subsets before supersets).
func subsetsUpTo(attrs []string, k int) [][]string {
	var out [][]string
	var build func(start int, cur []string)
	for size := 1; size <= k && size <= len(attrs); size++ {
		build = func(start int, cur []string) {
			if len(cur) == size {
				out = append(out, append([]string(nil), cur...))
				return
			}
			for i := start; i < len(attrs); i++ {
				build(i+1, append(cur, attrs[i]))
			}
		}
		build(0, nil)
	}
	return out
}

func contains(xs []string, a string) bool {
	for _, x := range xs {
		if x == a {
			return true
		}
	}
	return false
}
