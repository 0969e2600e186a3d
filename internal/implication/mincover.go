package implication

import (
	"context"
	"slices"

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
// (the same assumption §4 makes). CFDs are immutable by convention: a
// normal-form member of Σ that MinCover does not shorten is returned by
// pointer, and each shortened one is a new CFD sharing its original's RHS.
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
// The work set is compiled once, and every test runs the session's counter
// closure on its members' compiled items; the redundancy phase tombstones
// candidates in place instead of copying the compiled Σ.
func (s *Session) MinCover(sigma []*cfd.CFD) ([]*cfd.CFD, error) {
	if err := s.minCoverNormalize(sigma); err != nil {
		return nil, err
	}
	if err := s.minCoverReduce(); err != nil {
		return nil, err
	}
	return s.minCoverRedundancy(nil)
}

// minCoverNormalize runs MinCover's first phase — normalize to single-RHS,
// drop trivial CFDs, compile, dedup — leaving the work set compiled in the
// session, ready for left-reduction probes.
func (s *Session) minCoverNormalize(sigma []*cfd.CFD) error {
	s.work = s.work[:0]
	for _, c := range cfd.NormalizeAll(sigma) {
		if c.Relation == s.u.Relation && !c.IsTrivial() {
			s.work = append(s.work, c)
		}
	}
	err := s.compile(s.work)
	clear(s.work)
	if err != nil {
		return err
	}
	s.dedup()
	s.index()
	return nil
}

// leftReduceOne left-reduces the i-th compiled member against the session's
// compiled Σ in one pass over its LHS: each position is probed once, a
// removable attribute is dropped, and the scan continues at the same index.
// Dropping an LHS item only strengthens a CFD, so a probe X−{B} that failed
// fails again after any later drop (the new probe's LHS is a subset of the
// old one's): positions before the current one never need re-probing. A
// probe skipped as trivial is not a failed probe, so after a drop the scan
// resumes at the first such position. The result equals that of the
// restart scan (drop the first removable attribute, rescan from position
// 0) with fewer probes. Probes run on the member's compiled items, and a
// shortened CFD is built once, at the end of the scan; the member then
// holds it and its kept items, while the indexes keep the unreduced set
// until the next index.
//
// Every candidate probes the same unreduced work set, with no recompile
// between candidates. That is sound because an accepted reduction swaps a
// CFD for an equivalent one (the reduced CFD implies the original and was
// implied by Σ), so probing Σ with or without earlier reductions applied
// answers identically. It makes per-candidate reduction order-independent
// and safe to fan out (ParallelMinCover).
func (s *Session) leftReduceOne(i int) (*cfd.CFD, error) {
	cc := &s.sigma[i]
	if cc.c.Equality {
		return cc.c, nil
	}
	kept := s.kept[:0] // indexes into cc.lhs of the items kept so far
	for k := range cc.lhs {
		kept = append(kept, int32(k))
	}
	resume := -1 // first position skipped as trivial since the last drop
	for j := 0; j < len(kept); {
		x := s.probeLHS[:0]
		for m, k := range kept {
			if m != j {
				x = append(x, cc.lhs[k])
			}
		}
		s.probeLHS = x
		if trivial(x, cc.rhs, cc.rhsCode) {
			if resume < 0 {
				resume = j
			}
			j++
			continue
		}
		ok, err := s.probe(cc, x, &s.stats.LeftReduce)
		if err != nil {
			return nil, err
		}
		if !ok {
			j++
			continue
		}
		kept = append(kept[:j], kept[j+1:]...)
		if resume >= 0 {
			j, resume = resume, -1
		}
	}
	s.kept = kept
	if len(kept) == len(cc.lhs) {
		return cc.c, nil
	}
	var lhs []cfd.Item
	if len(kept) > 0 {
		lhs = make([]cfd.Item, len(kept))
	}
	for m, k := range kept {
		lhs[m] = cc.c.LHS[k]
		cc.lhs[m] = cc.lhs[k]
	}
	cc.lhs = cc.lhs[:len(kept)]
	cc.c = &cfd.CFD{Relation: cc.c.Relation, LHS: lhs, RHS: cc.c.RHS}
	return cc.c, nil
}

// trivial reports whether the standard CFD X → A is trivial (see
// cfd.CFD.IsTrivial), X as compiled items and A as position rhs with code
// rhsCode: A's first item in X has A's pattern, or A's pattern is '_'.
func trivial(lhs []lhsItem, rhs, rhsCode int32) bool {
	for _, it := range lhs {
		if it.pos == rhs {
			return rhsCode < 0 || it.code == rhsCode
		}
	}
	return false
}

// adopt makes r, the i-th member's left-reduced form computed on another
// session, the member here: its compiled items shrink to those r keeps
// (r's LHS is a subsequence of the member's).
func (s *Session) adopt(i int, r *cfd.CFD) {
	cc := &s.sigma[i]
	if cc.c == r {
		return
	}
	m := 0
	for k, it := range cc.c.LHS {
		if m < len(r.LHS) && r.LHS[m] == it {
			cc.lhs[m] = cc.lhs[k]
			m++
		}
	}
	cc.c, cc.lhs = r, cc.lhs[:m]
}

// dedup drops, in place, every member whose key an earlier member has. The
// key is the member's shape, its RHS item and the multiset of its LHS
// items, as positions and codes: they stand one to one for the relation's
// attributes and constants, so the key tells apart exactly the CFDs
// cfd.Key does, and the survivors are cfd.Dedup's, in order.
func (s *Session) dedup() {
	if s.seen == nil {
		s.seen = make(map[uint64]int32, len(s.sigma))
	} else {
		clear(s.seen)
	}
	s.next = s.next[:0]
	out := s.sigma[:0]
	for i := range s.sigma {
		cc := s.sigma[i]
		h := cc.hash()
		head, ok := s.seen[h] // the latest survivor with hash h
		if !ok {
			head = -1
		}
		j := head
		for j >= 0 && !s.sameKey(&out[j], &cc) {
			j = s.next[j]
		}
		if j >= 0 {
			continue
		}
		s.next = append(s.next, head)
		s.seen[h] = int32(len(out))
		out = append(out, cc)
	}
	clear(s.sigma[len(out):])
	s.sigma = out
}

// hash mixes a member's key; the LHS items are summed, so their order
// does not count. The RHS item is complemented first, so that swapping
// the sides of X → A does not keep the hash.
func (cc *compiledCFD) hash() uint64 {
	h := mix(^lhsItem{cc.rhs, cc.rhsCode}.packed())
	if cc.c.Equality {
		h = ^h
	}
	for _, it := range cc.lhs {
		h += mix(it.packed())
	}
	return h
}

// mix is SplitMix64's finalizer, offset so that 0 does not map to 0.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func (it lhsItem) packed() uint64 { return uint64(uint32(it.pos))<<32 | uint64(uint32(it.code)) }

// sameKey reports whether two members have the same key (see dedup).
func (s *Session) sameKey(a, b *compiledCFD) bool {
	if a.c.Equality != b.c.Equality || a.rhs != b.rhs || a.rhsCode != b.rhsCode || len(a.lhs) != len(b.lhs) {
		return false
	}
	s.keyA, s.keyB = s.keyA[:0], s.keyB[:0]
	for k := range a.lhs {
		s.keyA = append(s.keyA, a.lhs[k].packed())
		s.keyB = append(s.keyB, b.lhs[k].packed())
	}
	slices.Sort(s.keyA)
	slices.Sort(s.keyB)
	return slices.Equal(s.keyA, s.keyB)
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

// probe decides whether the compiled Σ implies member cc with its LHS
// items replaced by lhs, and counts the probe into ps.
func (s *Session) probe(cc *compiledCFD, lhs []lhsItem, ps *ProbeStats) (bool, error) {
	firings := s.firings
	v, err := s.decideCompiled(cc, lhs)
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

// decideCompiled decides member cc with its LHS items replaced by lhs
// (an equality member's are its own): MinCover's probes, on positions and
// codes alone.
func (s *Session) decideCompiled(cc *compiledCFD, lhs []lhsItem) (verdict, error) {
	if err := s.poll(); err != nil {
		return rejected, err
	}
	if cc.c.Equality {
		return s.decideEquality(cc.lhs[0].pos, cc.rhs)
	}
	return s.decideStd(lhs, cc.rhs, cc.rhsCode)
}

// minCoverRedundancy runs the redundancy phase over the compiled,
// left-reduced work set: exclude one member at a time via the skip mask,
// and tombstone it when the survivors imply it. When maybe is non-nil,
// members with maybe[i] == false are known to be non-redundant (a screen
// against the full work set — a superset of the survivors — failed to
// imply them, and implication is monotone in the premise set) and their
// probe is skipped; the output is identical either way.
func (s *Session) minCoverRedundancy(maybe []bool) ([]*cfd.CFD, error) {
	n := len(s.sigma)
	for i := range s.sigma {
		if maybe != nil && !maybe[i] {
			continue
		}
		s.setSkip(i)
		ok, err := s.probe(&s.sigma[i], s.sigma[i].lhs, &s.stats.Redundancy)
		if err != nil {
			s.setSkip(-1)
			return nil, err
		}
		if ok {
			s.markDead(i)
			n--
		}
	}
	s.setSkip(-1)
	out := make([]*cfd.CFD, 0, n)
	for i := range s.sigma {
		if !s.dead[i] {
			out = append(out, s.sigma[i].c)
		}
	}
	return out, nil
}

// minCoverReduce left-reduces every member on this session, one at a time
// against the compiled unreduced set, then dedups the reduced members and
// rebuilds the indexes from their kept items.
func (s *Session) minCoverReduce() error {
	for i := range s.sigma {
		if _, err := s.leftReduceOne(i); err != nil {
			return err
		}
	}
	s.dedup()
	s.index()
	return nil
}

// cfds returns the compiled members' CFDs, in order.
func (s *Session) cfds() []*cfd.CFD {
	out := make([]*cfd.CFD, len(s.sigma))
	for i := range s.sigma {
		out[i] = s.sigma[i].c
	}
	return out
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
//  2. rebuild the first session from the reduced members' kept items, and
//     screen every candidate in parallel against the reduced set minus
//     itself. A candidate the screen does NOT imply can never become
//     redundant later — the serial loop tests it against a subset of the
//     screen's premises (earlier tombstones removed), and implication is
//     monotone in the premise set — so only screen survivors re-enter
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
	if err := s0.minCoverNormalize(sigma); err != nil {
		return nil, err
	}
	if workers <= 1 || len(s0.sigma) < 2 {
		if err := s0.minCoverReduce(); err != nil {
			return nil, err
		}
		return s0.minCoverRedundancy(nil)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	sessions := make([]*Session, min(workers, len(s0.sigma)))
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

	work := s0.cfds()
	reduced := make([]*cfd.CFD, len(work))
	if err := fanOut(work, func(sess *Session, i int) (err error) {
		reduced[i], err = sess.leftReduceOne(i)
		return err
	}); err != nil {
		return nil, err
	}
	for i, r := range reduced {
		s0.adopt(i, r)
	}
	s0.dedup()
	s0.index()

	// maybe[i] reports member i implied by the others.
	maybe := make([]bool, len(s0.sigma))
	if err := fanOut(s0.cfds(), func(sess *Session, i int) (err error) {
		sess.setSkip(i)
		maybe[i], err = sess.probe(&sess.sigma[i], sess.sigma[i].lhs, &sess.stats.Redundancy)
		return err
	}); err != nil {
		return nil, err
	}
	return s0.minCoverRedundancy(maybe)
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
