package implication

import (
	"context"

	"cfdprop/internal/cfd"
	"cfdprop/internal/parutil"
)

// SetSigma compiles Σ into the session: CFDs on other relations are
// dropped, the rest are normalized and validated against the universe.
func (s *Session) SetSigma(sigma []*cfd.CFD) error {
	return s.setSigma(cfd.NormalizeAll(sigma))
}

// Reset returns a session that stopped mid-query — cancelled or recovered
// from a panic — to the quiescent state it had just after its last
// SetSigma: no firing queued, no skip/tombstones, no context. The compiled
// Σ is kept.
func (s *Session) Reset() {
	s.queue = s.queue[:0]
	s.SetContext(nil)
	s.skip = -1
	clear(s.dead)
	s.compDirty = true
}

// Implies reports whether the compiled Σ implies φ (infinite-domain
// setting). Multi-RHS φ are normalized on the fly.
func (s *Session) Implies(phi *cfd.CFD) (bool, error) {
	if err := s.u.checkCFD(phi); err != nil {
		return false, err
	}
	if phi.Equality || len(phi.RHS) == 1 {
		return s.implies(phi)
	}
	for _, p := range phi.Normalize() {
		ok, err := s.implies(p)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// MinCover computes a minimal cover of Σ (all CFDs on the universe's
// relation) per §4.1 of the paper: the result is equivalent to Σ, contains
// only nontrivial normal-form CFDs, has no CFD with a redundant LHS
// attribute, and no redundant CFD. It assumes the infinite-domain setting
// (the same assumption §4 makes).
//
// The procedure is the classical one lifted to CFDs:
//  1. normalize to single-attribute RHS, drop trivial CFDs, deduplicate;
//  2. left-reduce: remove LHS attributes whose removal keeps the CFD
//     implied by Σ (the reduced CFD implies the original, so equivalence
//     is preserved), one candidate at a time through leftReduceOne, which
//     probes each LHS position once;
//  3. drop CFDs implied by the remaining ones.
//
// This is exactly what ParallelMinCover runs on one worker. It makes
// O(|Σ|·k) implication tests for LHS size k — in step 2 one per LHS
// position unless a candidate repeats an attribute, in step 3 one per
// CFD — within the O(|Σ|³) bound the paper quotes for MinCover of [8].
// Each test runs the session's counter closure, and the redundancy phase
// tombstones candidates in place instead of copying the compiled Σ.
func (s *Session) MinCover(sigma []*cfd.CFD) ([]*cfd.CFD, error) {
	work, err := s.minCoverNormalize(sigma)
	if err != nil {
		return nil, err
	}
	if work, err = s.minCoverReduce(work); err != nil {
		return nil, err
	}
	return s.minCoverRedundancy(work, nil)
}

// minCoverNormalize runs MinCover's first phase — normalize to
// single-RHS, drop trivial CFDs, dedup, compile — leaving the session
// ready for left-reduction probes against the work set it returns.
func (s *Session) minCoverNormalize(sigma []*cfd.CFD) ([]*cfd.CFD, error) {
	work := make([]*cfd.CFD, 0, len(sigma))
	for _, c := range cfd.NormalizeAll(sigma) {
		if c.Relation != s.u.Relation {
			continue
		}
		if c.IsTrivial() {
			continue
		}
		work = append(work, c.Clone())
	}
	work = cfd.Dedup(work)
	if err := s.setSigma(work); err != nil {
		return nil, err
	}
	return work, nil
}

// leftReduceOne left-reduces one candidate against the session's compiled
// Σ in one pass over its LHS: each position is probed once, a removable
// attribute is dropped, and the scan continues at the same index. Dropping
// an LHS item only strengthens a CFD, so a probe X−{B} that failed fails
// again after any later drop (the new probe's LHS is a subset of the old
// one's): positions before the current one never need re-probing. A probe
// skipped as trivial is not a failed probe, so after a drop the scan
// resumes at the first such position. The result equals that of the
// restart scan (drop the first removable attribute, rescan from position
// 0) with fewer probes. Candidates are probed through one scratch CFD (the
// engine never retains φ) and only materialized on success — most probes
// fail, and cloning each of them would dominate the allocation profile.
//
// Every candidate probes the same unreduced work set, with no recompile
// between candidates. That is sound because an accepted reduction swaps a
// CFD for an equivalent one (the reduced CFD implies the original and was
// implied by Σ), so probing Σ with or without earlier reductions applied
// answers identically. It makes per-candidate reduction order-independent
// and safe to fan out (ParallelMinCover).
func (s *Session) leftReduceOne(c *cfd.CFD) (*cfd.CFD, error) {
	if c.Equality {
		return c, nil
	}
	probe := &cfd.CFD{Relation: c.Relation, RHS: c.RHS}
	resume := -1 // first position skipped as trivial since the last drop
	for j := 0; j < len(c.LHS); {
		probe.LHS = append(append(probe.LHS[:0], c.LHS[:j]...), c.LHS[j+1:]...)
		if probe.IsTrivial() {
			if resume < 0 {
				resume = j
			}
			j++
			continue
		}
		ok, err := s.probe(probe, &s.stats.LeftReduce)
		if err != nil {
			return nil, err
		}
		if !ok {
			j++
			continue
		}
		c = probe.Clone()
		if resume >= 0 {
			j, resume = resume, -1
		}
	}
	return c, nil
}

// ProbeStats counts one MinCover phase's implication probes by answer,
// and the closure steps they drew.
type ProbeStats struct {
	Implied  int64 // probes answered "implied", Vacuous included
	Rejected int64 // probes answered "not implied"
	// Vacuous counts the implied probes whose premise conflicts: the
	// closure met a conflict before it derived the conclusion.
	Vacuous int64
	// Firings counts the closure steps drawn.
	Firings int64
}

// Probes is the phase's total probe count.
func (p ProbeStats) Probes() int64 { return p.Implied + p.Rejected }

// MinCoverStats holds the probe counts of MinCover's two probing phases.
type MinCoverStats struct {
	LeftReduce, Redundancy ProbeStats
}

// ProbeStats returns the probe counts of every MinCover phase run on this
// session since NewSession. The counts are deterministic in the calls
// made.
func (s *Session) ProbeStats() MinCoverStats { return s.stats }

// probe decides Σ |= φ on the compiled Σ and counts the probe into ps.
func (s *Session) probe(phi *cfd.CFD, ps *ProbeStats) (bool, error) {
	firings := s.firings
	v, err := s.decide(phi)
	if err != nil {
		return false, err
	}
	ps.Firings += s.firings - firings
	switch v {
	case vacuous:
		ps.Vacuous++
		ps.Implied++
	case implied:
		ps.Implied++
	default:
		ps.Rejected++
	}
	return v != rejected, nil
}

// minCoverRedundancy runs the redundancy phase over a work set the session
// has already compiled (via minCoverReduce): exclude one candidate at a time
// via the skip mask, and tombstone it when the survivors imply it. When
// maybe is non-nil, candidates with maybe[i] == false are known to be
// non-redundant (a screen against the full work set — a superset of the
// survivors — failed to imply them, and implication is monotone in the
// premise set) and their probe is skipped; the output is identical either
// way.
func (s *Session) minCoverRedundancy(work []*cfd.CFD, maybe []bool) ([]*cfd.CFD, error) {
	for i := range work {
		if maybe != nil && !maybe[i] {
			continue
		}
		s.setSkip(i)
		ok, err := s.probe(work[i], &s.stats.Redundancy)
		if err != nil {
			s.setSkip(-1)
			return nil, err
		}
		if ok {
			s.markDead(i)
		}
	}
	s.setSkip(-1)
	out := work[:0]
	for i, c := range work {
		if !s.dead[i] {
			out = append(out, c)
		}
	}
	return out, nil
}

// minCoverReduce left-reduces the whole work set on this session, one
// candidate at a time against the compiled unreduced set, and recompiles
// the session once with the reduced, deduplicated result.
func (s *Session) minCoverReduce(work []*cfd.CFD) ([]*cfd.CFD, error) {
	for i, c := range work {
		r, err := s.leftReduceOne(c)
		if err != nil {
			return nil, err
		}
		work[i] = r
	}
	work = cfd.Dedup(work)
	if err := s.setSigma(work); err != nil {
		return nil, err
	}
	return work, nil
}

// ParallelMinCover computes the minimal cover of sigma exactly as
// Session.MinCover does — same tombstone semantics, byte-identical output
// order — but fans both quadratic phases out over up to workers sessions
// minted for this call, through parutil.DoCtx:
//
//  1. normalize/dedup on one session, then left-reduce every candidate in
//     parallel against the unreduced work set. Each candidate's reduction
//     is order-independent (see Session.leftReduceOne), so its reduced
//     form is the one Session.MinCover computes;
//  2. recompile the reduced set and screen every candidate in parallel
//     against it minus itself. A candidate the screen does NOT imply can
//     never become redundant later — the serial loop tests it against a
//     subset of the screen's premises (earlier tombstones removed), and
//     implication is monotone in the premise set — so only screen
//     survivors re-enter
//  3. the serial confirmation pass on the first session, which replays the
//     reference tombstone loop in candidate order over the (usually short)
//     maybe-redundant list.
//
// Worker w mints its session the first time it runs an item and compiles
// into it the work set of the current phase; the first session serves as
// worker 0. At workers <= 1, or with fewer than two candidates, this is
// Session.MinCover on one session. ctx (nil for none) cancels every
// session's chase cooperatively, and a panic in a worker surfaces as a
// *parutil.PanicError.
func ParallelMinCover(ctx context.Context, u Universe, sigma []*cfd.CFD, workers int) ([]*cfd.CFD, error) {
	s0 := NewSession(u)
	s0.SetContext(ctx)
	work, err := s0.minCoverNormalize(sigma)
	if err != nil {
		return nil, err
	}
	if workers <= 1 || len(work) < 2 {
		if work, err = s0.minCoverReduce(work); err != nil {
			return nil, err
		}
		return s0.minCoverRedundancy(work, nil)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	sessions := make([]*Session, min(workers, len(work)))
	sessions[0] = s0
	// fanOut runs job(sess, i) for every candidate of set, worker w on
	// sessions[w]. s0 enters each phase compiled with set; every other
	// session is minted or recompiled on its worker's first item.
	fanOut := func(set []*cfd.CFD, job func(sess *Session, i int) error) error {
		fresh := make([]bool, len(sessions))
		fresh[0] = true
		errs := make([]error, len(set))
		if err := parutil.DoCtx(ctx, len(set), len(sessions), func(w, i int) {
			if !fresh[w] {
				if sessions[w] == nil {
					sessions[w] = NewSession(u)
					sessions[w].SetContext(ctx)
				}
				if errs[i] = sessions[w].setSigma(set); errs[i] != nil {
					return
				}
				fresh[w] = true
			}
			errs[i] = job(sessions[w], i)
		}); err != nil {
			return err
		}
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}

	reduced := make([]*cfd.CFD, len(work))
	if err := fanOut(work, func(sess *Session, i int) (err error) {
		reduced[i], err = sess.leftReduceOne(work[i])
		return err
	}); err != nil {
		return nil, err
	}
	work = cfd.Dedup(reduced)
	if err := s0.setSigma(work); err != nil {
		return nil, err
	}

	// maybe[i] reports work[i] implied by work − {work[i]}.
	maybe := make([]bool, len(work))
	if err := fanOut(work, func(sess *Session, i int) (err error) {
		sess.setSkip(i)
		maybe[i], err = sess.probe(work[i], &sess.stats.Redundancy)
		return err
	}); err != nil {
		return nil, err
	}
	return s0.minCoverRedundancy(work, maybe)
}

// Equivalent reports whether two CFD sets over the universe imply each
// other (used by tests and the closure baseline comparison). Each set is
// compiled once into a session so the per-direction query loops share
// state.
func Equivalent(u Universe, a, b []*cfd.CFD) (bool, error) {
	sa := NewSession(u)
	if err := sa.SetSigma(a); err != nil {
		return false, err
	}
	for _, c := range b {
		ok, err := sa.Implies(c)
		if err != nil || !ok {
			return false, err
		}
	}
	sb := NewSession(u)
	if err := sb.SetSigma(b); err != nil {
		return false, err
	}
	for _, c := range a {
		ok, err := sb.Implies(c)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}
