// Package implication implements reasoning about CFDs on a single relation:
// the implication test Σ |= φ and MinCover, the minimal-cover procedure of
// Fan et al. (TODS, cited as [8]) that PropCFD_SPC uses as a subroutine
// (Fig. 2 lines 1 and 13).
//
// Implication is decided by chasing a canonical two-tuple template: the
// most general pair of tuples agreeing on φ's LHS and matching its LHS
// pattern. In the absence of finite-domain attributes the test is sound and
// complete and runs in polynomial time, matching the quadratic-time result
// of [8]. Finite domains are outside that setting: there the test stays
// sound but may miss implications that hold only by case analysis over a
// finite domain (deciding those is coNP-complete, [8]). The §3 propagation
// checks in internal/propagation handle finite domains themselves.
//
// # Architecture: sessions and the counter closure
//
// The hot path — MinCover and RBR issue many implication tests against one
// Σ — runs through Session (session.go), an engine that compiles Σ once
// per universe and answers queries without per-call allocation
// (TestImpliesSessionAllocationFree):
//
//   - Counter closure. The two-row template's state is a few monotone
//     facts per equality component (the components of the alive equality
//     CFDs): the rows are unioned, a row is bound to a constant, the rows
//     are equal. Every Σ constant is interned as an int32 code. Each
//     standard CFD counts its unmet LHS items, per row for a constant-RHS
//     CFD and for the pair otherwise, as LinClosure does for FDs (Beeri &
//     Bernstein, TODS 1979). A fact decrements only the counters of the LHS
//     items it satisfies, found through per-position indexes of wildcard
//     items and of constant items sorted by code; a counter that reaches 0
//     queues one firing, which binds or unions its RHS component. Counters
//     are epoch-stamped, so a query clears nothing in proportion to |Σ|,
//     and the closure stops as soon as the conclusion holds.
//
//   - Exact semantics. The closure decides every query exactly as the
//     reference sym.State chase of the template does (kept as the oracle in
//     differential_test.go), finite domains included: a φ constant outside
//     its attribute's domain is an error, and a component whose members'
//     domains do not intersect, a bind outside a component's domain, a
//     second constant in one class or a row union of an empty-domain cell
//     is a conflict, so φ is vacuously implied.
//
//   - One-pass left-reduction. MinCover probes each LHS position of a
//     candidate once: implication is monotone in the LHS, so a position
//     that failed never needs re-probing after a later drop
//     (TestLeftReduceMatchesRestart checks this against the restart scan).
//
//   - Tombstoned MinCover. The redundancy phase excludes one candidate via
//     a skip mask and kills redundant CFDs with a dead mask, instead of
//     copying the compiled Σ per candidate. The components are rebuilt only
//     when an equality CFD's liveness changes.
//
// Session.ProbeStats counts each MinCover phase's probes by answer, and the
// closure firings they drew.
//
// # Concurrency model
//
// Sessions are single-owner: all pooled buffers (facts, counters, the
// firing queue) are mutated per query, so a Session must never be shared
// between goroutines without external serialization. Concurrent work holds
// one Session per goroutine. ParallelMinCover mints one Session per worker
// for its call and fans the left-reduction and the candidate-redundancy
// screen out through parutil.DoCtx, then replays the reference tombstone
// loop over the screen's survivors on its first Session, so its output is
// byte-identical to Session.MinCover at every worker count
// (TestParallelMinCoverMatchesSession).
package implication

import (
	"fmt"

	"cfdprop/internal/cfd"
	"cfdprop/internal/rel"
)

// Universe is the attribute space CFDs are interpreted over: the schema of
// the (single) relation the CFDs are defined on. The relation name is used
// to build chase rows; CFDs whose Relation differs are rejected. Build
// Universes with NewUniverse/UniverseOf/InfiniteUniverse so the attribute
// index is precomputed; a zero idx is rebuilt lazily on first use.
type Universe struct {
	Relation string
	Attrs    []rel.Attribute

	idx map[string]int // attr name -> position in Attrs
}

// NewUniverse builds a Universe with its attribute index.
func NewUniverse(relation string, attrs []rel.Attribute) Universe {
	u := Universe{Relation: relation, Attrs: attrs}
	u.buildIndex()
	return u
}

// UniverseOf builds a Universe from a relation schema.
func UniverseOf(s *rel.Schema) Universe {
	return NewUniverse(s.Name, append([]rel.Attribute(nil), s.Attrs...))
}

// InfiniteUniverse builds a Universe whose attributes all carry the
// infinite domain.
func InfiniteUniverse(relation string, attrs ...string) Universe {
	as := make([]rel.Attribute, len(attrs))
	for i, a := range attrs {
		as[i] = rel.Attribute{Name: a, Domain: rel.Infinite()}
	}
	return NewUniverse(relation, as)
}

func (u *Universe) buildIndex() {
	u.idx = make(map[string]int, len(u.Attrs))
	for i, a := range u.Attrs {
		u.idx[a.Name] = i
	}
}

// indexed returns a copy with the attribute index present.
func (u Universe) indexed() Universe {
	if u.idx == nil {
		u.buildIndex()
	}
	return u
}

func (u Universe) pos(attr string) (int, bool) {
	i, ok := u.idx[attr]
	return i, ok
}

func (u Universe) checkCFD(c *cfd.CFD) error {
	if c.Relation != u.Relation {
		return fmt.Errorf("implication: %s is on relation %q, universe is %q", c, c.Relation, u.Relation)
	}
	for _, it := range c.LHS {
		if _, ok := u.pos(it.Attr); !ok {
			return fmt.Errorf("implication: %s mentions %q, not in universe", c, it.Attr)
		}
	}
	for _, it := range c.RHS {
		if _, ok := u.pos(it.Attr); !ok {
			return fmt.Errorf("implication: %s mentions %q, not in universe", c, it.Attr)
		}
	}
	return nil
}

// Implies is the one-shot form of Session.Implies: it reports whether
// Σ |= φ in the absence of finite-domain attributes. CFDs in sigma defined
// on other relations are ignored. The result is sound but possibly
// incomplete when finite domains are present.
func Implies(u Universe, sigma []*cfd.CFD, phi *cfd.CFD) (bool, error) {
	s := NewSession(u)
	if err := s.SetSigma(sigma); err != nil {
		return false, err
	}
	return s.Implies(phi)
}
