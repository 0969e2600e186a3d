package implication

import (
	"context"
	"fmt"
	"slices"

	"cfdprop/internal/cfd"
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

// Session is the reusable implication engine: one compiled universe with
// its per-position indexes, counters and pooled closure buffers, shared
// across many queries and MinCover calls. Callers that issue repeated
// implication work against the same relation — a cover's per-relation
// MinCover, the final MinCover, the closure-baseline comparisons,
// Equivalent —
// should hold one Session instead of paying per-call compilation and
// allocation. Sessions assume the infinite-domain setting of §4
// (finite-domain attributes are tolerated: the test stays sound) and are
// not safe for concurrent use.
//
// Σ is compiled once against the universe into integers: every member's
// LHS items become (position, constant code) pairs in one backing array.
// Each query runs a counter closure over the canonical two-row template
// (one row for equality queries). The template's state is a few monotone
// facts per equality component q, the components of the alive equality
// CFDs: the rows are unioned (agree[q]), row r is bound to a constant code
// (val[r][q]), and the rows are equal, unioned or bound to the same code
// (equal[q]). Each fact becomes true at most once per query, and only
// touches the LHS items it satisfies, through per-position indexes:
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
type Session struct {
	u     Universe
	sigma []compiledCFD
	items []lhsItem // backing array of the members' LHS items
	dead  []bool    // tombstoned CFDs are ignored by every query
	skip  int       // index temporarily excluded from Σ; -1 for none

	anyFinite bool // some universe attribute has a finite domain

	// Constant codes: every Σ constant gets one at compile. A query's
	// constants that Σ never mentions get codes from nSigmaCodes up,
	// appended to strs for the query and truncated at the next.
	codes       map[string]int32
	strs        []string // code -> constant
	nSigmaCodes int

	// Per-position indexes of the standard CFDs' LHS items, rebuilt by
	// index: wild holds the wildcard items of the CFDs that fire on pairs,
	// pair their constant items, and row the constant items of the CFDs
	// that fire per row.
	wild, pair, row posIndex
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

	// Per-CFD counters of unmet LHS items: ctr[i] per row for a CFD that
	// fires per row, ctr[i][0] for one that fires on pairs. ctr0 holds the
	// counts every query starts from, and begin copies it over ctr, so no
	// counter needs a first-touch check.
	ctr, ctr0 [][2]int32

	firings int64 // firings drawn so far

	// The probe being decided: its LHS items (φ's, translated, or a
	// left-reduction candidate's minus one), and per position the code
	// the probe seeds there: a repeated attribute takes its last item's.
	probeLHS []lhsItem
	seedCode []int32

	// MinCover scratch: the filtered work set before compile, the LHS
	// indexes a candidate keeps during its left-reduction, and the dedup
	// table (see dedup).
	work []*cfd.CFD
	kept []int32
	seen map[uint64]int32
	next []int32
	keyA []uint64
	keyB []uint64

	// Cooperative cancellation, installed by SetContext: every firing polls
	// done and aborts with ctx's error.
	ctx  context.Context
	done <-chan struct{}

	stats MinCoverStats // see ProbeStats
}

// posIndex groups LHS items by universe position: position p's items are
// items[start[p]:start[p+1]], sorted by code and then by CFD.
type posIndex struct {
	start []int32
	items []constItem
}

func (x *posIndex) at(p int32) []constItem { return x.items[x.start[p]:x.start[p+1]] }

// constItem is one LHS item in a posIndex; code is -1 for a wildcard.
type constItem struct{ code, cfd int32 }

// lhsItem is one compiled LHS item: its universe position and its
// constant's code, -1 for a wildcard.
type lhsItem struct{ pos, code int32 }

type compiledCFD struct {
	c       *cfd.CFD
	lhs     []lhsItem // c.LHS in order, compiled
	rhs     int32     // universe position of the RHS attr
	rhsCode int32     // code of the RHS constant; -1 for a wildcard
	// An equality CFD's codes only key dedup: its patterns do not count.
}

// NewSession builds an empty session over the universe; load Σ with
// SetSigma or run MinCover directly.
func NewSession(u Universe) *Session {
	u = u.indexed()
	s := &Session{
		u:         u,
		skip:      -1,
		seedCode:  make([]int32, len(u.Attrs)),
		compDirty: true,
	}
	for _, a := range u.Attrs {
		if a.Domain.Finite {
			s.anyFinite = true
			break
		}
	}
	s.buildIndex()
	return s
}

// compile compiles the CFDs of cs on the universe's relation (normalized)
// into the session's Σ, in order: their LHS items into one backing array,
// and every constant, equality CFDs' patterns included, into a code. The
// indexes are left to index.
func (s *Session) compile(cs []*cfd.CFD) error {
	n, m, consts := 0, 0, 0
	for _, c := range cs {
		if c.Relation != s.u.Relation {
			continue
		}
		n += len(c.LHS)
		m++
		for _, items := range [2][]cfd.Item{c.LHS, c.RHS} {
			for _, it := range items {
				if !it.Pat.Wildcard {
					consts++
				}
			}
		}
	}
	s.items = slices.Grow(s.items[:0], n)[:n]
	s.sigma = slices.Grow(s.sigma[:0], m)
	if s.codes == nil {
		s.codes = make(map[string]int32, consts)
	} else {
		clear(s.codes)
	}
	s.strs = s.strs[:0]
	off := 0
	for _, c := range cs {
		if c.Relation != s.u.Relation {
			continue
		}
		cc := compiledCFD{c: c, lhs: s.items[off : off+len(c.LHS) : off+len(c.LHS)]}
		off += len(c.LHS)
		ok := true
		for k, it := range c.LHS {
			p, found := s.u.pos(it.Attr)
			ok = ok && found
			cc.lhs[k] = lhsItem{int32(p), s.code(it.Pat)}
		}
		p, found := s.u.pos(c.RHS[0].Attr)
		if !ok || !found {
			return fmt.Errorf("implication: %s mentions attributes outside the universe", c)
		}
		cc.rhs, cc.rhsCode = int32(p), s.code(c.RHS[0].Pat)
		s.sigma = append(s.sigma, cc)
	}
	s.nSigmaCodes = len(s.strs)
	return nil
}

// code returns a Σ pattern's code, -1 for a wildcard, assigning the next
// one to a new constant.
func (s *Session) code(pat cfd.Pattern) int32 {
	if pat.Wildcard {
		return -1
	}
	k, ok := s.codes[pat.Const]
	if !ok {
		k = int32(len(s.strs))
		s.codes[pat.Const] = k
		s.strs = append(s.strs, pat.Const)
	}
	return k
}

// index readies the compiled Σ for queries: every member alive, no skip,
// and the indexes and counters rebuilt from the members' compiled items.
func (s *Session) index() {
	s.dead = zeroed(s.dead, len(s.sigma))
	s.skip = -1
	s.buildIndex()
	s.compDirty = true
}

// setSigma (re)compiles sigma into the session. CFDs on other relations
// are skipped, so when the caller prefilters to the universe's relation,
// compiled indices align with the input slice.
func (s *Session) setSigma(sigma []*cfd.CFD) error {
	if err := s.compile(sigma); err != nil {
		return err
	}
	s.index()
	return nil
}

// slot returns the index an LHS item with code k of cc belongs in, or nil
// for a wildcard of a CFD that fires per row: its row premise always holds
// there.
func (s *Session) slot(cc *compiledCFD, k int32) *posIndex {
	switch {
	case cc.rhsCode < 0 && k < 0:
		return &s.wild
	case cc.rhsCode < 0:
		return &s.pair
	case k < 0:
		return nil
	}
	return &s.row
}

// buildIndex rebuilds the per-position indexes and the starting counts
// from the members' compiled items: one pass counts each position's items
// and sets each member's starting count in ctr0 (0 for an equality CFD,
// which no index holds), one fills the items in, and each position's run
// is sorted by code.
func (s *Session) buildIndex() {
	n := len(s.u.Attrs)
	idxs := [...]*posIndex{&s.wild, &s.pair, &s.row}
	for _, x := range idxs {
		x.start = zeroed(x.start, n+1)
	}
	s.ctr0 = zeroed(s.ctr0, len(s.sigma))
	s.ctr = zeroed(s.ctr, len(s.sigma))
	s.rowRoots, s.pairRoots, s.eqCFDs = s.rowRoots[:0], s.pairRoots[:0], s.eqCFDs[:0]
	for i := range s.sigma {
		cc := &s.sigma[i]
		if cc.c.Equality {
			s.eqCFDs = append(s.eqCFDs, int32(i))
			continue
		}
		k := int32(0)
		for _, it := range cc.lhs {
			if x := s.slot(cc, it.code); x != nil {
				x.start[it.pos+1]++
				k++
			}
		}
		switch {
		case k == 0 && cc.rhsCode >= 0:
			s.rowRoots = append(s.rowRoots, int32(i))
		case k == 0:
			s.pairRoots = append(s.pairRoots, int32(i))
		}
		s.ctr0[i] = [2]int32{k, k}
	}
	for _, x := range idxs {
		for p := 0; p < n; p++ {
			x.start[p+1] += x.start[p]
		}
		x.items = zeroed(x.items, int(x.start[n]))
	}
	// Fill using the starts as cursors, then shift them back.
	for i := range s.sigma {
		cc := &s.sigma[i]
		if cc.c.Equality {
			continue
		}
		for _, it := range cc.lhs {
			if x := s.slot(cc, it.code); x != nil {
				x.items[x.start[it.pos]] = constItem{code: it.code, cfd: int32(i)}
				x.start[it.pos]++
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
}

// buildComps recomputes the equality components of the alive equality
// CFDs, their domains and the seed conflict.
func (s *Session) buildComps() {
	n := len(s.u.Attrs)
	s.parent = zeroed(s.parent, n)
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
			s.parent[find(cc.lhs[0].pos)] = find(cc.rhs)
		}
	}
	// Number the components densely in position order; comp doubles as the
	// root-to-id map while it is filled.
	s.comp = zeroed(s.comp, n)
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
	s.memStart = zeroed(s.memStart, int(nComp)+1)
	for _, q := range s.comp {
		s.memStart[q+1]++
	}
	for q := int32(0); q < nComp; q++ {
		s.memStart[q+1] += s.memStart[q]
	}
	s.members = zeroed(s.members, n)
	for p, q := range s.comp {
		s.members[s.memStart[q]] = int32(p)
		s.memStart[q]++
	}
	copy(s.memStart[1:], s.memStart[:nComp])
	s.memStart[0] = 0
	s.dom = zeroed(s.dom, int(nComp))
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
	s.agree = zeroed(s.agree, int(nComp))
	s.equal = zeroed(s.equal, int(nComp))
	for r := range s.val {
		s.val[r] = zeroed(s.val[r], int(nComp))
	}
	s.compDirty = false
}

// zeroed returns x resized to n zero elements, reusing its array when it
// is large enough.
func zeroed[T any](x []T, n int) []T {
	if cap(x) < n {
		return make([]T, n)
	}
	x = x[:n]
	clear(x)
	return x
}

func emptyDomain(d rel.Domain) bool { return d.Finite && len(d.Values) == 0 }

// SetContext installs a cancellation context checked at every firing of
// subsequent queries; a cancelled context surfaces as the context's error
// from Implies/MinCover. Pass nil to clear. Cancellation never corrupts
// the session: after Reset (or a fresh SetSigma) it is fully reusable.
func (s *Session) SetContext(ctx context.Context) {
	s.ctx = ctx
	if ctx != nil {
		s.done = ctx.Done()
	} else {
		s.done = nil
	}
}

// alive reports whether the i-th compiled CFD participates in queries.
func (s *Session) alive(i int32) bool { return !s.dead[i] && int(i) != s.skip }

// setSkip temporarily excludes one compiled CFD (-1 for none) — MinCover's
// redundancy phase tests "Σ − {φ} |= φ" this way.
func (s *Session) setSkip(i int) {
	if s.isEquality(s.skip) || s.isEquality(i) {
		s.compDirty = true
	}
	s.skip = i
}

// markDead tombstones the i-th compiled CFD — used by MinCover's
// redundancy phase instead of copying the compiled slice per candidate.
func (s *Session) markDead(i int) {
	s.dead[i] = true
	if s.isEquality(i) {
		s.compDirty = true
	}
}

func (s *Session) isEquality(i int) bool { return i >= 0 && s.sigma[i].c.Equality }

// begin starts a query over an n-row template: every counter at its
// starting count, no facts and an empty queue.
func (s *Session) begin(rows int) {
	if s.compDirty {
		s.buildComps()
	}
	s.rows = rows
	copy(s.ctr, s.ctr0)
	clear(s.agree)
	clear(s.equal)
	for r := range s.val {
		for q := range s.val[r] {
			s.val[r][q] = -1
		}
	}
	s.queue = s.queue[:0]
}

// queryCode returns the code of a query constant. A constant Σ never
// mentions gets a per-query code when add is set, and -2 otherwise: no fact
// can hold it.
func (s *Session) queryCode(c string, add bool) int32 {
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
func (s *Session) dec(i int32, slot int) {
	c := &s.ctr[i][slot]
	*c--
	if *c == 0 && s.alive(i) {
		s.queue = append(s.queue, i<<1|int32(slot))
	}
}

// decConst counts the constant items of x with code k at component q's
// positions into counter slot.
func (s *Session) decConst(x *posIndex, q, k int32, slot int) {
	for _, p := range s.members[s.memStart[q]:s.memStart[q+1]] {
		for _, it := range codeRun(x.at(p), k) {
			s.dec(it.cfd, slot)
		}
	}
}

// codeRun returns the items of run, sorted by code, that have code k.
func codeRun(run []constItem, k int32) []constItem {
	lo, hi := 0, len(run)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); run[m].code < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	end := lo
	for end < len(run) && run[end].code == k {
		end++
	}
	return run[lo:end]
}

// bind binds component q in row r to code k, reporting false on a
// conflict: a second constant in the class, or k outside q's domain.
func (s *Session) bind(r int, q, k int32) bool {
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

// seedBoth binds component q to φ's constant k in both rows, as bind(0, q,
// k) followed by bind(1, q, k) would, in one pass over the row index: every
// φ seed leaves the rows agreeing, so the two row counters of a CFD that
// fires per row move together, and the row-1 firings are queued after the
// row-0 ones in the same order.
func (s *Session) seedBoth(q, k int32) bool {
	switch v := s.val[0][q]; {
	case v == k:
		return true
	case v >= 0:
		return false
	}
	if d := &s.dom[q]; d.Finite && !d.Contains(s.strs[k]) {
		return false
	}
	s.val[0][q], s.val[1][q] = k, k
	start := len(s.queue)
	for _, p := range s.members[s.memStart[q]:s.memStart[q+1]] {
		for _, it := range codeRun(s.row.at(p), k) {
			c := &s.ctr[it.cfd]
			c[0]--
			c[1]--
			if c[0] == 0 && s.alive(it.cfd) {
				s.queue = append(s.queue, it.cfd<<1)
			}
		}
	}
	for _, f := range s.queue[start:] {
		s.queue = append(s.queue, f|1)
	}
	s.decConst(&s.pair, q, k, 0)
	s.setEqual(q)
	return true
}

// union unions the rows' classes of component q, reporting false on a
// conflict: two constants, or an empty domain. A φ LHS position shared by
// both rows is one class already, so its union never conflicts.
func (s *Session) union(q int32, shared bool) bool {
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
func (s *Session) setEqual(q int32) {
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
func (s *Session) queueRoots() {
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
func (s *Session) reached() bool {
	if s.rows == 1 {
		v := s.val[0][s.tq]
		return v >= 0 && v == s.val[0][s.tb]
	}
	return s.equal[s.tq] && (s.tk == -1 || s.val[0][s.tq] == s.tk)
}

// drain runs the queued firings until the query's conclusion holds, the
// queue runs dry (the closure is complete), or a firing conflicts. It
// returns the context's error when a context installed via SetContext is
// cancelled.
func (s *Session) drain() (verdict, error) {
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
		if err := s.poll(); err != nil {
			return rejected, err
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
func (s *Session) implies(phi *cfd.CFD) (bool, error) {
	v, err := s.decide(phi)
	return v != rejected, err
}

// poll reports the installed context's error once it is cancelled.
func (s *Session) poll() error {
	if s.done != nil {
		select {
		case <-s.done:
			return s.ctx.Err()
		default:
		}
	}
	return nil
}

// decide is implies with the kind of positive answer. It translates φ's
// attributes and constants into positions and codes and decides it on the
// compiled-item entry points, decideStd and decideEquality.
func (s *Session) decide(phi *cfd.CFD) (verdict, error) {
	// Poll once up front so a cancelled session refuses every query, not
	// just those that fire.
	if err := s.poll(); err != nil {
		return rejected, err
	}
	outside := func() (verdict, error) {
		return rejected, fmt.Errorf("implication: %s mentions attribute outside the universe", phi)
	}
	if phi.Equality {
		a, ok1 := s.u.pos(phi.LHS[0].Attr)
		b, ok2 := s.u.pos(phi.RHS[0].Attr)
		if !ok1 || !ok2 {
			return outside()
		}
		return s.decideEquality(int32(a), int32(b))
	}
	s.strs = s.strs[:s.nSigmaCodes]
	s.probeLHS = s.probeLHS[:0]
	for _, it := range phi.LHS {
		p, ok := s.u.pos(it.Attr)
		if !ok {
			return outside()
		}
		k := int32(-1)
		if !it.Pat.Wildcard {
			k = s.queryCode(it.Pat.Const, true)
		}
		s.probeLHS = append(s.probeLHS, lhsItem{int32(p), k})
	}
	rhs := phi.RHS[0]
	ai, ok := s.u.pos(rhs.Attr)
	if !ok {
		return outside()
	}
	tk := int32(-1)
	if !rhs.Pat.Wildcard {
		tk = s.queryCode(rhs.Pat.Const, false)
	}
	return s.decideStd(s.probeLHS, int32(ai), tk)
}

// decideStd decides a standard query X → A on the two-row template: X as
// compiled items, whose repeated positions take their last item's code, and
// A as position rhs with code tk (-1 for a wildcard, -2 for a constant no
// fact can hold).
func (s *Session) decideStd(lhs []lhsItem, rhs, tk int32) (verdict, error) {
	for _, it := range lhs {
		s.seedCode[it.pos] = it.code
	}
	if s.anyFinite {
		// The first offending position in universe order is reported.
		bad := int32(-1)
		for _, it := range lhs {
			if k := s.seedCode[it.pos]; k >= 0 && !s.u.Attrs[it.pos].Domain.Contains(s.strs[k]) && (bad < 0 || it.pos < bad) {
				bad = it.pos
			}
		}
		if bad >= 0 {
			return rejected, fmt.Errorf("implication: constant %q outside domain of %s", s.strs[s.seedCode[bad]], s.u.Attrs[bad].Name)
		}
	}

	s.begin(2)
	if s.seedConflict {
		return vacuous, nil
	}
	for _, it := range lhs {
		q := s.comp[it.pos]
		var ok bool
		if k := s.seedCode[it.pos]; k < 0 {
			ok = s.union(q, true)
		} else {
			ok = s.seedBoth(q, k)
		}
		if !ok {
			return vacuous, nil
		}
	}
	s.queueRoots()
	s.tq, s.tk = s.comp[rhs], tk
	return s.drain()
}

// decideEquality decides an equality query t[A] = t[B], A and B at
// positions a and b, on the one-row template.
func (s *Session) decideEquality(a, b int32) (verdict, error) {
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
