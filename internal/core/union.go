package core

import (
	"cfdprop/internal/algebra"
	"cfdprop/internal/cfd"
	"cfdprop/internal/rel"
)

// UnionResult is the output of PropCFDSPCU.
type UnionResult struct {
	// Cover is a set of CFDs propagated to the SPCU view. It is sound
	// (every member is propagated) and minimal (no member is redundant),
	// but — unlike the SPC algorithm — not guaranteed complete: extending
	// the §4 cover algorithm with union is future work in the paper (§7),
	// so this is a candidate-generation heuristic validated by the exact
	// PTIME decision procedure of §3.
	Cover      []*cfd.CFD
	ViewSchema *rel.Schema
	// Candidates counts the candidate CFDs tested against the union.
	Candidates int
	// MemoHits / MemoMisses aggregate the §3 memo counters over every
	// candidate check (see propagation.Result): hits are pair verdicts
	// replayed from the memo, misses are pairs chased and stored.
	MemoHits, MemoMisses int
}

// PropCFDSPCU computes a sound, minimal set of CFDs propagated from Σ to
// an SPCU view, in the infinite-domain setting.
//
// Method: compute the exact minimal propagation cover of each disjunct
// (PropCFDSPC); pool the resulting CFDs as candidates, additionally
// guarding each candidate with the constant columns of its own disjunct
// (that is how R1(zip → street) becomes R([CC=44, zip] → [street]) in
// Example 1.1); keep exactly the candidates the §3 decision procedure
// certifies on the union; return their minimal cover. It is a
// CoverSession used once: CoverSession.Cover holds the candidate loop.
func PropCFDSPCU(db *rel.DBSchema, view *algebra.SPCU, sigma []*cfd.CFD, opts Options) (*UnionResult, error) {
	cs, err := NewCoverSession(db, view, opts)
	if err != nil {
		return nil, err
	}
	return cs.Cover(opts.Context, sigma)
}
