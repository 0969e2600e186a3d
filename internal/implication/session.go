package implication

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"cfdprop/internal/cfd"
	"cfdprop/internal/chase"
	"cfdprop/internal/faultinject"
	"cfdprop/internal/rel"
)

// verdict is one probe's answer: not implied, implied, or implied
// vacuously because the template conflicts.
type verdict int8

const (
	rejected verdict = iota
	implied
	vacuous
)

// session is the implication engine behind Implies-style queries. Σ is
// compiled once against the universe, and each query runs a counter
// closure over the canonical two-row template (one row for equality
// queries). The template's state is a few monotone facts per equality
// component q, the components of the alive equality CFDs: the rows are
// unioned (agree[q]), row r is bound to a constant code (val[r][q]), and
// the rows are equal, unioned or bound to the same code (equal[q]). Each
// fact becomes true at most once per query, and only touches the LHS items
// it satisfies, through per-position indexes:
//
//   - a constant-RHS CFD fires once per row, when its row's counter of
//     unmet constant LHS items reaches 0, and binds its RHS component in
//     that row (its pair firing would add nothing: a pair premise implies
//     both row premises, and both rows then hold the constant);
//   - any other standard CFD fires when its pair counter of unmet LHS
//     items reaches 0, and unions its RHS component across the rows.
//
// MinCover's redundancy phase tombstones CFDs (dead) and temporarily
// excludes one candidate (skip) instead of copying the compiled slice;
// the indexes cover every CFD and liveness is checked when a counter
// reaches 0.
type session struct {
	u     Universe
	sigma []compiledCFD
	dead  []bool // tombstoned CFDs are ignored by every query
	skip  int    // index temporarily excluded from Σ; -1 for none

	anyFinite bool // some universe attribute has a finite domain

	// Constant codes: every Σ constant gets one at setSigma. A query's
	// constants that Σ never mentions get codes from nSigmaCodes up,
	// appended to strs for the query and truncated at the next.
	codes       map[string]int32
	strs        []string // code -> constant
	nSigmaCodes int

	// Per-position indexes of the standard CFDs' LHS items, rebuilt by
	// setSigma: wild holds the wildcard items of the CFDs that fire on
	// pairs, pair their constant items, and row the constant items of the
	// CFDs that fire per row.
	wild, pair, row posIndex
	init            []int32 // per CFD: its counters' starting value
	rowRoots        []int32 // CFDs that fire per row with no constant LHS item
	pairRoots       []int32 // CFDs that fire on pairs with an empty LHS
	eqCFDs          []int32

	// Equality components, rebuilt only when an equality CFD's liveness
	// changes: comp maps a position to its component, members[memStart[q]:
	// memStart[q+1]] lists component q's positions, dom[q] is the
	// intersection of their domains, and seedConflict is set when a
	// component of two or more members has an empty one.
	compDirty         bool
	parent            []int32 // scratch union-find over positions
	comp              []int32
	memStart, members []int32
	dom               []rel.Domain
	seedConflict      bool

	// Per-query facts, indexed by component, and the firing queue.
	rows  int   // template rows of the current query: 1 or 2
	tq    int32 // the conclusion's component (see reached)
	tk    int32 // a standard φ's RHS code: -1 for a wildcard, -2 if unknown
	tb    int32 // an equality φ's second component
	agree []bool
	equal []bool
	val   [2][]int32 // -1: unbound
	queue []int32    // firings: cfd<<1 | row (row 0 for pair firings)

	// Epoch-stamped per-CFD counters: ctr[i] counts only while its epoch
	// is the current one, so starting a query costs no O(|Σ|) clear.
	ctr   []counter
	epoch uint32

	firings int64 // firings drawn so far

	// φ's LHS positions, and its pattern at each, keyed by position: a
	// repeated attribute takes its last pattern.
	phiPos    []int
	sharedPat []cfd.Pattern

	// Cooperative cancellation, installed by setContext: every firing polls
	// done and aborts with ctx's error.
	ctx  context.Context
	done <-chan struct{}

	// Cooperative step budget, installed by setBudget: every firing draws
	// one step; exhaustion aborts with chase.ErrStepBudget. Like
	// propagation.Options.MaxChaseSteps, the counter may be shared across
	// sessions so concurrent work exhausts one global budget.
	steps *atomic.Int64
}

// posIndex groups LHS items by universe position: position p's items are
// items[start[p]:start[p+1]], sorted by code and then by CFD.
type posIndex struct {
	start []int32
	items []constItem
}

func (x *posIndex) at(p int32) []constItem { return x.items[x.start[p]:x.start[p+1]] }

// constItem is one LHS item in a posIndex; code is 0 for a wildcard.
type constItem struct{ code, cfd int32 }

// counter holds one CFD's unmet-item counts: per row for a CFD that fires
// per row, n[0] for one that fires on pairs.
type counter struct {
	epoch uint32
	n     [2]int32
}

type compiledCFD struct {
	c       *cfd.CFD
	lhs     []int // universe positions of LHS attrs
	rhs     int   // universe position of the RHS attr
	rhsCode int32 // code of a standard CFD's constant RHS; -1 for a wildcard
}

// newSession validates and compiles sigma (already normalized; CFDs on
// other relations are skipped).
func newSession(u Universe, sigma []*cfd.CFD) (*session, error) {
	u = u.indexed()
	n := len(u.Attrs)
	s := &session{u: u, skip: -1, codes: make(map[string]int32), sharedPat: make([]cfd.Pattern, n)}
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

// compile resolves a normalized CFD's attribute positions and codes a
// standard CFD's constant RHS.
func (s *session) compile(c *cfd.CFD) (compiledCFD, error) {
	cc := compiledCFD{c: c, lhs: make([]int, len(c.LHS)), rhsCode: -1}
	ok := true
	pos := func(attr string) int {
		p, found := s.u.pos(attr)
		ok = ok && found
		return p
	}
	for k, it := range c.LHS {
		cc.lhs[k] = pos(it.Attr)
	}
	if cc.rhs = pos(c.RHS[0].Attr); !ok {
		return cc, fmt.Errorf("implication: %s mentions attributes outside the universe", c)
	}
	if !c.Equality && !c.RHS[0].Pat.Wildcard {
		cc.rhsCode = s.code(c.RHS[0].Pat.Const)
	}
	return cc, nil
}

// code returns a Σ constant's code, assigning the next one if it is new.
func (s *session) code(c string) int32 {
	k, ok := s.codes[c]
	if !ok {
		k = int32(len(s.strs))
		s.codes[c] = k
		s.strs = append(s.strs, c)
	}
	return k
}

// setSigma (re)compiles sigma into the session. CFDs on other relations
// are skipped, so when the caller prefilters to the universe's relation
// (as MinCover does), compiled indices align with the input slice.
func (s *session) setSigma(sigma []*cfd.CFD) error {
	s.sigma = s.sigma[:0]
	clear(s.codes)
	s.strs = s.strs[:0]
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
	s.dead = append(s.dead[:0], make([]bool, len(s.sigma))...)
	s.skip = -1
	s.buildIndex()
	s.nSigmaCodes = len(s.strs)
	s.compDirty = true
	return nil
}

// slot returns the index an LHS item with pattern pat of cc belongs in, or
// nil for a wildcard of a CFD that fires per row: its row premise always
// holds there.
func (s *session) slot(cc *compiledCFD, pat cfd.Pattern) *posIndex {
	switch {
	case cc.rhsCode < 0 && pat.Wildcard:
		return &s.wild
	case cc.rhsCode < 0:
		return &s.pair
	case pat.Wildcard:
		return nil
	}
	return &s.row
}

// buildIndex rebuilds the per-position indexes, codes the LHS constants
// and sizes the counters: one pass counts each position's items, one fills
// them in, and each position's run is sorted by code.
func (s *session) buildIndex() {
	n := len(s.u.Attrs)
	idxs := [...]*posIndex{&s.wild, &s.pair, &s.row}
	for _, x := range idxs {
		x.start = append(x.start[:0], make([]int32, n+1)...)
	}
	s.init, s.rowRoots, s.pairRoots, s.eqCFDs = s.init[:0], s.rowRoots[:0], s.pairRoots[:0], s.eqCFDs[:0]
	for i := range s.sigma {
		cc := &s.sigma[i]
		if cc.c.Equality {
			s.eqCFDs = append(s.eqCFDs, int32(i))
			s.init = append(s.init, 0)
			continue
		}
		k := int32(0)
		for j, p := range cc.lhs {
			if x := s.slot(cc, cc.c.LHS[j].Pat); x != nil {
				x.start[p+1]++
				k++
			}
		}
		switch {
		case k == 0 && cc.rhsCode >= 0:
			s.rowRoots = append(s.rowRoots, int32(i))
		case k == 0:
			s.pairRoots = append(s.pairRoots, int32(i))
		}
		s.init = append(s.init, k)
	}
	for _, x := range idxs {
		for p := 0; p < n; p++ {
			x.start[p+1] += x.start[p]
		}
		x.items = append(x.items[:0], make([]constItem, x.start[n])...)
	}
	// Fill using the starts as cursors, then shift them back.
	for i := range s.sigma {
		cc := &s.sigma[i]
		if cc.c.Equality {
			continue
		}
		for j, p := range cc.lhs {
			pat := cc.c.LHS[j].Pat
			if x := s.slot(cc, pat); x != nil {
				it := constItem{cfd: int32(i)}
				if !pat.Wildcard {
					it.code = s.code(pat.Const)
				}
				x.items[x.start[p]] = it
				x.start[p]++
			}
		}
	}
	byCode := func(a, b constItem) int { return int(a.code - b.code) }
	for _, x := range idxs {
		copy(x.start[1:], x.start[:n])
		x.start[0] = 0
		for p := int32(0); p < int32(n); p++ {
			slices.SortStableFunc(x.at(p), byCode)
		}
	}
	if len(s.ctr) < len(s.sigma) {
		s.ctr = make([]counter, len(s.sigma))
		s.epoch = 0
	}
}

// buildComps recomputes the equality components of the alive equality
// CFDs, their domains and the seed conflict.
func (s *session) buildComps() {
	n := len(s.u.Attrs)
	s.parent = append(s.parent[:0], make([]int32, n)...)
	for p := range s.parent {
		s.parent[p] = int32(p)
	}
	find := func(p int32) int32 {
		for s.parent[p] != p {
			s.parent[p] = s.parent[s.parent[p]]
			p = s.parent[p]
		}
		return p
	}
	for _, i := range s.eqCFDs {
		if s.alive(i) {
			cc := &s.sigma[i]
			s.parent[find(int32(cc.lhs[0]))] = find(int32(cc.rhs))
		}
	}
	// Number the components densely in position order; comp doubles as the
	// root-to-id map while it is filled.
	s.comp = append(s.comp[:0], make([]int32, n)...)
	for p := range s.comp {
		s.comp[p] = -1
	}
	nComp := int32(0)
	for p := range s.comp {
		r := find(int32(p))
		if s.comp[r] < 0 {
			s.comp[r] = nComp
			nComp++
		}
		s.comp[p] = s.comp[r]
	}
	s.memStart = append(s.memStart[:0], make([]int32, nComp+1)...)
	for _, q := range s.comp {
		s.memStart[q+1]++
	}
	for q := int32(0); q < nComp; q++ {
		s.memStart[q+1] += s.memStart[q]
	}
	s.members = append(s.members[:0], make([]int32, n)...)
	for p, q := range s.comp {
		s.members[s.memStart[q]] = int32(p)
		s.memStart[q]++
	}
	copy(s.memStart[1:], s.memStart[:nComp])
	s.memStart[0] = 0
	s.dom = append(s.dom[:0], make([]rel.Domain, nComp)...)
	s.seedConflict = false
	for q := int32(0); q < nComp; q++ {
		ms := s.members[s.memStart[q]:s.memStart[q+1]]
		d := rel.Infinite()
		for _, p := range ms {
			d = d.Intersect(s.u.Attrs[p].Domain)
		}
		s.dom[q] = d
		if len(ms) > 1 && emptyDomain(d) {
			s.seedConflict = true
		}
	}
	s.agree = append(s.agree[:0], make([]bool, nComp)...)
	s.equal = append(s.equal[:0], make([]bool, nComp)...)
	for r := range s.val {
		s.val[r] = append(s.val[r][:0], make([]int32, nComp)...)
	}
	s.compDirty = false
}

func emptyDomain(d rel.Domain) bool { return d.Finite && len(d.Values) == 0 }

// setContext installs (or, with nil, clears) a cancellation context
// checked at every firing.
func (s *session) setContext(ctx context.Context) {
	s.ctx = ctx
	if ctx != nil {
		s.done = ctx.Done()
	} else {
		s.done = nil
	}
}

// setBudget installs (or, with nil, clears) a shared step budget drawn
// down by every firing.
func (s *session) setBudget(steps *atomic.Int64) { s.steps = steps }

// alive reports whether the i-th compiled CFD participates in queries.
func (s *session) alive(i int32) bool { return !s.dead[i] && int(i) != s.skip }

// setSkip temporarily excludes one compiled CFD (-1 for none) — MinCover's
// redundancy phase tests "Σ − {φ} |= φ" this way.
func (s *session) setSkip(i int) {
	if s.isEquality(s.skip) || s.isEquality(i) {
		s.compDirty = true
	}
	s.skip = i
}

// markDead tombstones the i-th compiled CFD — used by MinCover's
// redundancy phase instead of copying the compiled slice per candidate.
func (s *session) markDead(i int) {
	s.dead[i] = true
	if s.isEquality(i) {
		s.compDirty = true
	}
}

func (s *session) isEquality(i int) bool { return i >= 0 && s.sigma[i].c.Equality }

// begin starts a query over an n-row template: a fresh counter epoch, no
// facts, an empty queue, and no per-query codes.
func (s *session) begin(rows int) {
	if s.compDirty {
		s.buildComps()
	}
	s.rows = rows
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps could match again
		clear(s.ctr)
		s.epoch = 1
	}
	clear(s.agree)
	clear(s.equal)
	for r := range s.val {
		for q := range s.val[r] {
			s.val[r][q] = -1
		}
	}
	s.queue = s.queue[:0]
	s.strs = s.strs[:s.nSigmaCodes]
}

// queryCode returns the code of a query constant. A constant Σ never
// mentions gets a per-query code when add is set, and -2 otherwise: no fact
// can hold it.
func (s *session) queryCode(c string, add bool) int32 {
	if k, ok := s.codes[c]; ok {
		return k
	}
	for k := s.nSigmaCodes; k < len(s.strs); k++ {
		if s.strs[k] == c {
			return int32(k)
		}
	}
	if !add {
		return -2
	}
	s.strs = append(s.strs, c)
	return int32(len(s.strs) - 1)
}

// dec counts one met item of CFD i's counter slot, queueing its firing when
// none is left.
func (s *session) dec(i int32, slot int) {
	c := &s.ctr[i]
	if c.epoch != s.epoch {
		c.epoch = s.epoch
		c.n[0], c.n[1] = s.init[i], s.init[i]
	}
	c.n[slot]--
	if c.n[slot] == 0 && s.alive(i) {
		s.queue = append(s.queue, i<<1|int32(slot))
	}
}

// decConst counts the constant items of x with code k at component q's
// positions into counter slot.
func (s *session) decConst(x *posIndex, q, k int32, slot int) {
	for _, p := range s.members[s.memStart[q]:s.memStart[q+1]] {
		run := x.at(p)
		lo, hi := 0, len(run)
		for lo < hi {
			if m := int(uint(lo+hi) >> 1); run[m].code < k {
				lo = m + 1
			} else {
				hi = m
			}
		}
		for ; lo < len(run) && run[lo].code == k; lo++ {
			s.dec(run[lo].cfd, slot)
		}
	}
}

// bind binds component q in row r to code k, reporting false on a
// conflict: a second constant in the class, or k outside q's domain.
func (s *session) bind(r int, q, k int32) bool {
	switch v := s.val[r][q]; {
	case v == k:
		return true
	case v >= 0:
		return false
	}
	if d := &s.dom[q]; d.Finite && !d.Contains(s.strs[k]) {
		return false
	}
	s.val[r][q] = k
	s.decConst(&s.row, q, k, r)
	if s.rows == 1 {
		return true
	}
	o := 1 - r
	switch {
	case s.val[o][q] == k:
		s.decConst(&s.pair, q, k, 0)
		s.setEqual(q)
	case s.agree[q]:
		return s.bind(o, q, k)
	}
	return true
}

// union unions the rows' classes of component q, reporting false on a
// conflict: two constants, or an empty domain. A φ LHS position shared by
// both rows is one class already, so its union never conflicts.
func (s *session) union(q int32, shared bool) bool {
	if s.agree[q] {
		return true
	}
	if !shared && emptyDomain(s.dom[q]) {
		return false
	}
	s.agree[q] = true
	switch v0, v1 := s.val[0][q], s.val[1][q]; {
	case v0 >= 0 && v1 >= 0:
		return v0 == v1 // equal already holds
	case v0 >= 0:
		return s.bind(1, q, v0)
	case v1 >= 0:
		return s.bind(0, q, v1)
	}
	s.setEqual(q)
	return true
}

// setEqual records that the rows are equal on component q, counting the
// wildcard items at its positions.
func (s *session) setEqual(q int32) {
	if s.equal[q] {
		return
	}
	s.equal[q] = true
	for _, p := range s.members[s.memStart[q]:s.memStart[q+1]] {
		for _, it := range s.wild.at(p) {
			s.dec(it.cfd, 0)
		}
	}
}

// queueRoots queues the firings whose premise holds in every template.
func (s *session) queueRoots() {
	for _, i := range s.rowRoots {
		if s.alive(i) {
			s.queue = append(s.queue, i<<1)
			if s.rows == 2 {
				s.queue = append(s.queue, i<<1|1)
			}
		}
	}
	if s.rows == 2 {
		for _, i := range s.pairRoots {
			if s.alive(i) {
				s.queue = append(s.queue, i<<1)
			}
		}
	}
}

// reached reports whether the query's conclusion holds: for a standard φ,
// the rows are equal on its RHS component tq and, for a constant RHS, hold
// code tk; for an equality φ, the row holds one code on components tq and
// tb.
func (s *session) reached() bool {
	if s.rows == 1 {
		v := s.val[0][s.tq]
		return v >= 0 && v == s.val[0][s.tb]
	}
	return s.equal[s.tq] && (s.tk == -1 || s.val[0][s.tq] == s.tk)
}

// drain runs the queued firings until the query's conclusion holds, the
// queue runs dry (the closure is complete), or a firing conflicts. It
// returns the context's error when a context installed via setContext is
// cancelled, and chase.ErrStepBudget when the budget runs out.
func (s *session) drain() (verdict, error) {
	for qh := 0; ; qh++ {
		// A conclusion that holds stays true whatever follows, a conflict
		// included, so the closure stops as soon as it holds.
		if s.reached() {
			return implied, nil
		}
		if qh == len(s.queue) {
			return rejected, nil
		}
		faultinject.Hit(faultinject.SiteImplicationStep)
		if s.done != nil {
			select {
			case <-s.done:
				return rejected, s.ctx.Err()
			default:
			}
		}
		if s.steps != nil && s.steps.Add(-1) < 0 {
			return rejected, chase.ErrStepBudget
		}
		s.firings++
		f := s.queue[qh]
		cc := &s.sigma[f>>1]
		q := s.comp[cc.rhs]
		var ok bool
		if cc.rhsCode >= 0 {
			ok = s.bind(int(f&1), q, cc.rhsCode)
		} else {
			ok = s.union(q, false)
		}
		if !ok {
			return vacuous, nil
		}
	}
}

// implies decides Σ |= φ using the compiled Σ (infinite-domain setting;
// phi must be in normal form and validated against the universe).
func (s *session) implies(phi *cfd.CFD) (bool, error) {
	v, err := s.decide(phi)
	return v != rejected, err
}

// decide is implies with the kind of positive answer.
func (s *session) decide(phi *cfd.CFD) (verdict, error) {
	// Poll once up front so a cancelled session refuses every query, not
	// just those that fire.
	if s.done != nil {
		select {
		case <-s.done:
			return rejected, s.ctx.Err()
		default:
		}
	}
	if phi.Equality {
		return s.decideEquality(phi)
	}
	s.phiPos = s.phiPos[:0]
	for _, it := range phi.LHS {
		p, ok := s.u.pos(it.Attr)
		if !ok {
			return rejected, fmt.Errorf("implication: %s mentions attribute outside the universe", phi)
		}
		s.sharedPat[p] = it.Pat
		s.phiPos = append(s.phiPos, p)
	}
	rhs := phi.RHS[0]
	ai, ok := s.u.pos(rhs.Attr)
	if !ok {
		return rejected, fmt.Errorf("implication: %s mentions attribute outside the universe", phi)
	}
	if s.anyFinite {
		// The first offending position in universe order is reported.
		bad := -1
		for _, p := range s.phiPos {
			if pat := s.sharedPat[p]; !pat.Wildcard && !s.u.Attrs[p].Domain.Contains(pat.Const) && (bad < 0 || p < bad) {
				bad = p
			}
		}
		if bad >= 0 {
			return rejected, fmt.Errorf("implication: constant %q outside domain of %s", s.sharedPat[bad].Const, s.u.Attrs[bad].Name)
		}
	}

	s.begin(2)
	if s.seedConflict {
		return vacuous, nil
	}
	for _, p := range s.phiPos {
		q := s.comp[p]
		if pat := s.sharedPat[p]; pat.Wildcard {
			ok = s.union(q, true)
		} else {
			k := s.queryCode(pat.Const, true)
			ok = s.bind(0, q, k) && s.bind(1, q, k)
		}
		if !ok {
			return vacuous, nil
		}
	}
	s.queueRoots()
	s.tq, s.tk = s.comp[ai], -1
	if !rhs.Pat.Wildcard {
		s.tk = s.queryCode(rhs.Pat.Const, false)
	}
	return s.drain()
}

// decideEquality decides an equality query t[A] = t[B] on the one-row
// template.
func (s *session) decideEquality(phi *cfd.CFD) (verdict, error) {
	a, ok1 := s.u.pos(phi.LHS[0].Attr)
	b, ok2 := s.u.pos(phi.RHS[0].Attr)
	if !ok1 || !ok2 {
		return rejected, fmt.Errorf("implication: %s mentions attribute outside the universe", phi)
	}
	s.begin(1)
	s.tq, s.tb = s.comp[a], s.comp[b]
	if s.tq == s.tb {
		return implied, nil // one class
	}
	if s.seedConflict {
		return vacuous, nil
	}
	s.queueRoots()
	return s.drain()
}
