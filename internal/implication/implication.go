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
// # Architecture: sessions, worklist chase, closure fast path
//
// The hot path — MinCover and RBR issue many implication tests against one
// Σ — runs through Session (session.go), an incremental engine that
// compiles Σ once per universe and answers queries without per-call
// allocation:
//
//   - Indexed probes. Compiled CFDs are indexed by the universe positions
//     their LHS mentions (a CSR table) and, beside that, by the constant
//     LHS patterns at each position. A probe finds the CFDs it seeds, and
//     the constant-RHS CFDs that could fire, by counting pattern matches
//     through the constant-pattern index instead of scanning all of Σ;
//     what stays O(|Σ|) per probe is one copy of the armed closure
//     counters and the worklist-flag clear.
//
//   - Worklist chase. The shared sym.State journals every class change
//     (sym.Event: a bind or a union), and only the CFDs whose LHS touches a
//     changed class re-enter the worklist — premises are monotone, so this
//     finds every newly-enabled firing without the version-counter full
//     rescans of the reference engine (kept as the oracle in
//     differential_test.go).
//
//   - Pooled templates. One sym.State plus fixed row buffers are reset
//     (epoch-style, capacity-preserving) per query; steady-state queries
//     are allocation-free (TestImpliesSessionAllocationFree).
//
//   - Closure fast path (fastpath.go). Over infinite-domain universes, the
//     attribute-set closure of the wildcard-FD skeleton of Σ decides the
//     all-FD case exactly without chasing, and for general Σ soundly
//     rejects non-implications whose RHS position is unreachable in an
//     over-approximated closure — provided a per-column-component constant
//     analysis rules out chase conflicts. The closure stops as soon as the
//     RHS position enters it. The fast path abstains (and the full chase
//     runs) whenever finite domains, a potential constant clash, or a
//     reachable RHS make the cheap answer unsafe.
//
//   - One-pass left-reduction. MinCover probes each LHS position of a
//     candidate once: implication is monotone in the LHS, so a position
//     that failed never needs re-probing after a later drop
//     (TestLeftReduceMatchesRestart checks this against the restart scan).
//
//   - Tombstoned MinCover. The redundancy phase excludes one candidate via
//     a skip mask and kills redundant CFDs with a dead mask, instead of
//     copying the compiled Σ per candidate.
//
// Session.ProbeStats counts each MinCover phase's probes, split by whether
// the fast path decided them or a chase ran.
//
// # Concurrency model
//
// Sessions are single-owner: all pooled buffers (chase state, worklist,
// templates) are mutated per query, so a Session must never be shared
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
