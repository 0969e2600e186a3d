package implication

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"cfdprop/internal/cfd"
	"cfdprop/internal/chase"
	"cfdprop/internal/faultinject"
	"cfdprop/internal/sym"
)

// errConflict is the internal sentinel for "the chase became undefined":
// the premise cannot be realized under Σ. It never escapes the package —
// implies translates it into a (true, nil) vacuous-implication result.
var errConflict = errors.New("implication: chase undefined")

// session is the incremental implication engine behind Implies-style
// queries: Σ is compiled once against the universe and indexed by the
// attribute positions its LHSs mention, and every query reuses one pooled
// sym.State and row buffers instead of allocating a template per call.
// The two-row chase is worklist-driven: the state journals which classes
// change (sym.Event) and only the CFDs whose LHS touches a changed class
// are re-examined, instead of rescanning all of Σ per fixpoint round.
//
// MinCover's redundancy phase tombstones CFDs (dead) and temporarily
// excludes one candidate (skip) instead of copying the compiled slice.
type session struct {
	u     Universe
	sigma []compiledCFD
	dead  []bool // tombstoned CFDs are ignored by every query
	skip  int    // index temporarily excluded from Σ; -1 for none

	anyFinite bool // some universe attribute has a finite domain

	// byCol is a CSR index: colCFDs[colStart[p]:colStart[p+1]] lists the
	// standard (non-equality) CFDs whose LHS mentions universe position p.
	// Beside it, the constant-pattern index constIdx[constStart[p]:
	// constStart[p+1]] lists (standard CFD, constant) for every constant
	// LHS pattern at p; nConst[i] counts CFD i's constant LHS patterns,
	// noConst lists the standard CFDs with none and eqCFDs the equality
	// CFDs, both in index order. The indexes cover dead CFDs too (filtered
	// at use), so only setSigma dirties them.
	colStart   []int32
	colCFDs    []int32
	constStart []int32
	constIdx   []constEntry
	nConst     []int32
	noConst    []int32
	eqCFDs     []int32
	idxDirty   bool

	// Epoch-stamped per-CFD match counters, shared by the chase seed and
	// the fast path's firing analysis: cnt[i] counts only while
	// cntEpoch[i] == epoch, so starting a count costs no O(|Σ|) clear.
	cnt      []int32
	cntEpoch []uint32
	epoch    uint32

	chases int64 // chases run so far; a probe that ran none was decided by the fast path

	// Pooled chase machinery, reused across implies calls.
	st     *sym.State
	rowBuf [][]sym.Term
	queue  []int32
	inQ    []bool

	// Pooled per-call φ-LHS pattern table, keyed by universe position.
	// Invariant between calls: sharedOn is all-false.
	sharedOn  []bool
	sharedPat []cfd.Pattern

	// Cooperative cancellation, installed by setContext: the worklist chase
	// polls done periodically and aborts with ctx's error.
	ctx  context.Context
	done <-chan struct{}

	// Cooperative step budget, installed by setBudget: every worklist pop
	// draws one step; exhaustion aborts with chase.ErrStepBudget. Like
	// propagation.Options.MaxChaseSteps, the counter may be shared across
	// sessions so concurrent work exhausts one global budget.
	steps *atomic.Int64

	fp fastPath
}

// constEntry is one constant LHS pattern in the constant-pattern index.
type constEntry struct {
	cfd int32
	val string
}

type compiledCFD struct {
	c        *cfd.CFD
	lhs      []int // universe positions of LHS attrs
	rhs      []int // universe positions of RHS attrs
	isFD     bool  // standard CFD with all-wildcard patterns
	constRHS bool  // standard CFD with a constant RHS pattern
}

// newSession validates and compiles sigma (already normalized; CFDs on
// other relations are skipped).
func newSession(u Universe, sigma []*cfd.CFD) (*session, error) {
	u = u.indexed()
	n := len(u.Attrs)
	s := &session{u: u, skip: -1, st: sym.NewState()}
	s.st.TrackEvents(true)
	s.rowBuf = make([][]sym.Term, 2)
	for i := range s.rowBuf {
		s.rowBuf[i] = make([]sym.Term, n)
	}
	s.sharedOn = make([]bool, n)
	s.sharedPat = make([]cfd.Pattern, n)
	for _, a := range u.Attrs {
		if a.Domain.Finite {
			s.anyFinite = true
			break
		}
	}
	if err := s.setSigma(sigma); err != nil {
		return nil, err
	}
	return s, nil
}

// compile resolves a CFD's attribute positions and classifies it. Both
// position slices share one backing array.
func (s *session) compile(c *cfd.CFD) (compiledCFD, error) {
	cc := compiledCFD{c: c}
	buf := make([]int, len(c.LHS)+len(c.RHS))
	for k, it := range c.LHS {
		i, found := s.u.pos(it.Attr)
		if !found {
			return cc, fmt.Errorf("implication: %s mentions attributes outside the universe", c)
		}
		buf[k] = i
	}
	for k, it := range c.RHS {
		i, found := s.u.pos(it.Attr)
		if !found {
			return cc, fmt.Errorf("implication: %s mentions attributes outside the universe", c)
		}
		buf[len(c.LHS)+k] = i
	}
	cc.lhs = buf[:len(c.LHS):len(c.LHS)]
	cc.rhs = buf[len(c.LHS):]
	if !c.Equality {
		cc.isFD = c.IsFD()
		cc.constRHS = !c.RHS[0].Pat.Wildcard
	}
	return cc, nil
}

// setSigma (re)compiles sigma into the session, reusing pooled buffers.
// CFDs on other relations are skipped, so when the caller prefilters to the
// universe's relation (as MinCover does), compiled indices align with the
// input slice.
func (s *session) setSigma(sigma []*cfd.CFD) error {
	s.sigma = s.sigma[:0]
	for _, c := range sigma {
		if c.Relation != s.u.Relation {
			continue
		}
		cc, err := s.compile(c)
		if err != nil {
			return err
		}
		s.sigma = append(s.sigma, cc)
	}
	if cap(s.dead) < len(s.sigma) {
		s.dead = make([]bool, len(s.sigma))
	} else {
		s.dead = s.dead[:len(s.sigma)]
		for i := range s.dead {
			s.dead[i] = false
		}
	}
	s.skip = -1
	s.idxDirty = true
	s.fp.dirty = true
	return nil
}

// setContext installs (or, with nil, clears) a cancellation context
// checked inside the worklist chase.
func (s *session) setContext(ctx context.Context) {
	s.ctx = ctx
	if ctx != nil {
		s.done = ctx.Done()
	} else {
		s.done = nil
	}
}

// setBudget installs (or, with nil, clears) a shared chase-step budget
// drawn down by the worklist chase.
func (s *session) setBudget(steps *atomic.Int64) { s.steps = steps }

// alive reports whether the i-th compiled CFD participates in queries.
func (s *session) alive(i int) bool { return !s.dead[i] && i != s.skip }

// setSkip temporarily excludes one compiled CFD (-1 for none) — MinCover's
// redundancy phase tests "Σ − {φ} |= φ" this way.
func (s *session) setSkip(i int) {
	s.skip = i
	s.fp.dirty = true
}

// markDead tombstones the i-th compiled CFD — used by MinCover's
// redundancy phase instead of copying the compiled slice per candidate.
func (s *session) markDead(i int) {
	s.dead[i] = true
	s.fp.dirty = true
}

// buildColIndex rebuilds the LHS-position and constant-pattern indexes.
func (s *session) buildColIndex() {
	n := len(s.u.Attrs)
	s.colStart = append(s.colStart[:0], make([]int32, n+1)...)
	s.constStart = append(s.constStart[:0], make([]int32, n+1)...)
	s.nConst, s.noConst, s.eqCFDs = s.nConst[:0], s.noConst[:0], s.eqCFDs[:0]
	for i, cc := range s.sigma {
		k := int32(0)
		if cc.c.Equality {
			s.eqCFDs = append(s.eqCFDs, int32(i))
		} else {
			for j, p := range cc.lhs {
				s.colStart[p+1]++
				if !cc.c.LHS[j].Pat.Wildcard {
					s.constStart[p+1]++
					k++
				}
			}
			if k == 0 {
				s.noConst = append(s.noConst, int32(i))
			}
		}
		s.nConst = append(s.nConst, k)
	}
	for p := 0; p < n; p++ {
		s.colStart[p+1] += s.colStart[p]
		s.constStart[p+1] += s.constStart[p]
	}
	s.colCFDs = append(s.colCFDs[:0], make([]int32, s.colStart[n])...)
	s.constIdx = append(s.constIdx[:0], make([]constEntry, s.constStart[n])...)
	// Fill using the starts as cursors, then shift them back.
	for i, cc := range s.sigma {
		if cc.c.Equality {
			continue
		}
		for j, p := range cc.lhs {
			s.colCFDs[s.colStart[p]] = int32(i)
			s.colStart[p]++
			if pat := cc.c.LHS[j].Pat; !pat.Wildcard {
				s.constIdx[s.constStart[p]] = constEntry{int32(i), pat.Const}
				s.constStart[p]++
			}
		}
	}
	copy(s.colStart[1:], s.colStart[:n])
	copy(s.constStart[1:], s.constStart[:n])
	s.colStart[0], s.constStart[0] = 0, 0
	if len(s.cnt) < len(s.sigma) {
		s.cnt = make([]int32, len(s.sigma))
		s.cntEpoch = make([]uint32, len(s.sigma))
		s.epoch = 0
	}
	s.idxDirty = false
}

// newEpoch starts a fresh round of bump counts.
func (s *session) newEpoch() {
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps could match again
		clear(s.cntEpoch)
		s.epoch = 1
	}
}

// bump increments CFD i's count in the current epoch and returns it.
func (s *session) bump(i int32) int32 {
	if s.cntEpoch[i] != s.epoch {
		s.cntEpoch[i] = s.epoch
		s.cnt[i] = 0
	}
	s.cnt[i]++
	return s.cnt[i]
}

// enqueue appends CFD i to the chase worklist.
func (s *session) enqueue(i int32) {
	s.inQ[i] = true
	s.queue = append(s.queue, i)
}

// chase runs the two-row (or one-row) worklist chase to fixpoint. It
// returns nil on fixpoint, errConflict when the chase is undefined
// (conflict — the premise cannot be realized under Σ), or the context's
// error when a context installed via setContext is cancelled mid-chase.
func (s *session) chase(rows [][]sym.Term) error {
	s.chases++
	if err := s.seed(rows); err != nil {
		return err
	}
	// The equality seeding can merge classes and — through template
	// constants — bind them, enabling constant-pattern CFDs that were not
	// seeded. Drain its journal like any other application's.
	s.drainEvents(rows)
	return s.chaseLoop(rows)
}

// seed applies the equality CFDs and fills the worklist with the standard
// CFDs whose premise is initially determinable, in index order. Equality
// CFDs are applied once up front, in index order: equating t[A] and t[B]
// is idempotent, so they never need re-examination. A standard CFD is
// seeded only when every constant LHS pattern is pinned by a matching
// template constant (wildcard positions hold trivially for the
// single-tuple case); the constant-pattern index counts those matches
// from the pinned positions, so the seed touches only the CFDs they
// mention. Any other premise requires a class to change first — a bind or
// union on a mentioned column — and the change journal enqueues the CFD
// then.
func (s *session) seed(rows [][]sym.Term) error {
	st := s.st
	if s.idxDirty {
		s.buildColIndex()
	}
	if cap(s.inQ) < len(s.sigma) {
		s.inQ = make([]bool, len(s.sigma))
	} else {
		s.inQ = s.inQ[:len(s.sigma)]
		clear(s.inQ)
	}
	s.queue = s.queue[:0]
	for _, i := range s.eqCFDs {
		if !s.alive(int(i)) {
			continue
		}
		cc := &s.sigma[i]
		for _, r := range rows {
			if st.Equate(r[cc.lhs[0]], r[cc.rhs[0]]) != nil {
				return errConflict
			}
		}
	}
	for _, i := range s.noConst {
		if s.alive(int(i)) {
			s.enqueue(i)
		}
	}
	s.newEpoch()
	for p, on := range s.sharedOn {
		if !on || s.sharedPat[p].Wildcard {
			continue
		}
		for _, e := range s.constIdx[s.constStart[p]:s.constStart[p+1]] {
			if e.val == s.sharedPat[p].Const && s.bump(e.cfd) == s.nConst[e.cfd] && s.alive(int(e.cfd)) {
				s.enqueue(e.cfd)
			}
		}
	}
	slices.Sort(s.queue)
	return nil
}

// chaseLoop drains the worklist to fixpoint: the tail of chase, once the
// template constants and equality CFDs have seeded it.
func (s *session) chaseLoop(rows [][]sym.Term) error {
	st := s.st
	for qh := 0; qh < len(s.queue); qh++ {
		faultinject.Hit(faultinject.SiteImplicationStep)
		// The two-row template bounds the worklist, so one poll per pop is
		// cheap relative to the chase work and keeps cancellation prompt.
		if s.done != nil {
			select {
			case <-s.done:
				return s.ctx.Err()
			default:
			}
		}
		if s.steps != nil && s.steps.Add(-1) < 0 {
			return chase.ErrStepBudget
		}
		i := s.queue[qh]
		s.inQ[i] = false
		if !s.alive(int(i)) {
			continue
		}
		cc := &s.sigma[i]
		for a := range rows {
			for b := a; b < len(rows); b++ {
				if !s.premiseHolds(st, *cc, rows[a], rows[b]) {
					continue
				}
				for k, it := range cc.c.RHS {
					x, y := rows[a][cc.rhs[k]], rows[b][cc.rhs[k]]
					if st.Equate(x, y) != nil {
						return errConflict
					}
					if !it.Pat.Wildcard {
						if st.Bind(x, it.Pat.Const) != nil {
							return errConflict
						}
					}
				}
			}
		}
		s.drainEvents(rows)
	}
	return nil
}

// drainEvents empties the state's change journal, re-enqueueing the CFDs
// whose LHS touches a column holding a member of a changed class. For a
// union event, members of both classes now find() to ev.Root, so scanning
// for that root over-approximates the absorbed class — sound, and the
// template is tiny.
func (s *session) drainEvents(rows [][]sym.Term) {
	st := s.st
	evs := st.Events()
	if len(evs) == 0 {
		return
	}
	for _, ev := range evs {
		for p := range rows[0] {
			touched := false
			for r := range rows {
				if t := rows[r][p]; t.IsVar && st.Root(t) == ev.Root {
					touched = true
					break
				}
			}
			if touched {
				for _, ci := range s.colCFDs[s.colStart[p]:s.colStart[p+1]] {
					if !s.inQ[ci] && s.alive(int(ci)) {
						s.inQ[ci] = true
						s.queue = append(s.queue, ci)
					}
				}
			}
		}
	}
	st.ClearEvents()
}

func (s *session) premiseHolds(st *sym.State, cc compiledCFD, t1, t2 []sym.Term) bool {
	for k, it := range cc.c.LHS {
		a := st.Resolve(t1[cc.lhs[k]])
		b := st.Resolve(t2[cc.lhs[k]])
		if a.IsVar != b.IsVar {
			return false
		}
		if a.IsVar {
			if a.Var != b.Var || !it.Pat.Wildcard {
				return false
			}
		} else if a.Const != b.Const || !it.Pat.Matches(a.Const) {
			return false
		}
	}
	return true
}

// template rebuilds the pooled n-row implication template over the full
// universe, column-major: positions flagged in sharedOn carry phi's LHS
// pattern (a fixed constant in every row, or one variable shared by all
// rows); every other position gets per-row fresh variables.
func (s *session) template(n int) ([][]sym.Term, error) {
	st := s.st
	st.Reset()
	rows := s.rowBuf[:n]
	for i, a := range s.u.Attrs {
		if s.sharedOn[i] {
			if pat := s.sharedPat[i]; !pat.Wildcard {
				if !a.Domain.Contains(pat.Const) {
					return nil, fmt.Errorf("implication: constant %q outside domain of %s", pat.Const, a.Name)
				}
				c := sym.Constant(pat.Const)
				for r := range rows {
					rows[r][i] = c
				}
				continue
			}
			v := st.NewVar(a.Domain)
			for r := range rows {
				rows[r][i] = v
			}
			continue
		}
		for r := range rows {
			rows[r][i] = st.NewVar(a.Domain)
		}
	}
	return rows, nil
}

// clearShared restores the all-false sharedOn invariant after a query.
func (s *session) clearShared(phi *cfd.CFD) {
	for _, it := range phi.LHS {
		if p, ok := s.u.pos(it.Attr); ok {
			s.sharedOn[p] = false
		}
	}
}

// implies decides Σ |= φ using the compiled Σ (infinite-domain setting;
// phi must be in normal form and validated against the universe).
func (s *session) implies(phi *cfd.CFD) (bool, error) {
	// The chase loop polls the context too, but the closure fast paths
	// answer many queries without ever chasing — poll once up front so a
	// cancelled session refuses all queries, not just the slow ones.
	if s.done != nil {
		select {
		case <-s.done:
			return false, s.ctx.Err()
		default:
		}
	}
	if phi.Equality {
		a, ok1 := s.u.pos(phi.LHS[0].Attr)
		b, ok2 := s.u.pos(phi.RHS[0].Attr)
		if !ok1 || !ok2 {
			return false, fmt.Errorf("implication: %s mentions attribute outside the universe", phi)
		}
		if a == b {
			return true, nil
		}
		if decided, result := s.fastImpliesEquality(); decided {
			return result, nil
		}
		rows, err := s.template(1)
		if err != nil {
			return false, err
		}
		switch err := s.chase(rows); err {
		case nil:
		case errConflict:
			return true, nil // no tuple can exist
		default:
			return false, err
		}
		return s.st.SameTerm(rows[0][a], rows[0][b]), nil
	}

	for _, it := range phi.LHS {
		p, ok := s.u.pos(it.Attr)
		if !ok {
			return false, fmt.Errorf("implication: %s mentions attribute outside the universe", phi)
		}
		s.sharedOn[p] = true
		s.sharedPat[p] = it.Pat
	}
	defer s.clearShared(phi)

	rhs := phi.RHS[0]
	ai, ok := s.u.pos(rhs.Attr)
	if !ok {
		return false, fmt.Errorf("implication: %s mentions attribute outside the universe", phi)
	}
	if decided, result := s.fastImplies(phi, ai); decided {
		return result, nil
	}
	rows, err := s.template(2)
	if err != nil {
		return false, err
	}
	switch err := s.chase(rows); err {
	case nil:
	case errConflict:
		return true, nil // premise unsatisfiable: vacuously implied
	default:
		return false, err
	}
	st := s.st
	a1 := st.Resolve(rows[0][ai])
	a2 := st.Resolve(rows[1][ai])
	if !st.SameTerm(a1, a2) {
		return false, nil
	}
	if rhs.Pat.Wildcard {
		return true, nil
	}
	return !a1.IsVar && a1.Const == rhs.Pat.Const, nil
}
