package implication

import "cfdprop/internal/cfd"

// fastPath decides (or cheaply rejects) implication queries without
// chasing, via the classical attribute-set closure over the wildcard-FD
// skeleton of Σ.
//
// Two regimes, both restricted to infinite-domain universes:
//
//   - Exact: when every alive CFD is a plain FD (all-wildcard patterns, no
//     equality CFDs), the two-row chase makes the rows equal exactly on the
//     positions in closure(X) — the textbook result — so Σ |= (X → A, tp)
//     is decided outright.
//
//   - Reject: for general Σ, a sound over-approximation of every column
//     equality the chase could derive is closed over: the FD skeleton of
//     each standard CFD (pattern match requirements dropped), each equality
//     CFD's column component, and the RHS column of every constant-RHS CFD
//     that could possibly fire (both rows bound to the same constant makes
//     them equal without any class merge). "Possibly fire" tracks one
//     potential constant per equality-linked column component; if a
//     component could see two distinct constants the chase might conflict
//     (making φ vacuously implied), so the filter abstains. When the RHS
//     position is outside the closure, the rows provably never agree on it
//     and φ is not implied — without running the chase.
//
// Both steps cost time in proportion to the CFDs a probe touches, not to
// |Σ|. The firing analysis is driven by components as they gain their
// constant: the session's constant-pattern index counts, per CFD, the
// constant LHS patterns those components match, and a CFD fires when its
// count reaches its number of constant patterns. The conflict-free
// fixpoint of that analysis is unique, and a conflict found in one firing
// order is found in every order, so this equals a round-based rescan of Σ.
// The closure (LinClosure's counters: Beeri & Bernstein, TODS 1979) stops
// as soon as the RHS position enters it, since both regimes read only
// that bit. What stays O(|Σ|) per probe is one copy of the armed counters.
//
// TestIndexedProbeMatchesScan checks both regimes against the scan-based
// fast path they replaced, and the session's differential test checks
// their answers against the reference full-rescan engine.
type fastPath struct {
	dirty bool // Σ, tombstones, or skip changed: rebuild cached views

	// Cached per Σ-state:
	allFD    bool
	parent   []int32 // scratch union-find over positions
	comp     []int32 // position -> equality-component representative
	memStart []int32 // CSR: members[memStart[q]:memStart[q+1]] are component q's positions
	members  []int32
	armed    []int32 // per CFD: LHS length; -1 when dead, skipped or an equality CFD
	roots    []int32 // alive standard CFDs with an empty LHS

	// Pooled per-query buffers:
	inClo     []bool
	cloQ      []int32
	missing   []int32 // per CFD: LHS positions not yet in the closure; -1 = inactive
	compConst []string
	compHas   []bool
	compQ     []int32 // components that gained their constant, to process
}

func (fp *fastPath) find(p int32) int32 {
	for fp.parent[p] != p {
		fp.parent[p] = fp.parent[fp.parent[p]]
		p = fp.parent[p]
	}
	return p
}

// rebuild refreshes the cached Σ views: the all-FD flag, the armed
// closure counters, the empty-LHS roots, and the equality components with
// their membership lists.
func (fp *fastPath) rebuild(s *session) {
	n := len(s.u.Attrs)
	fp.allFD = true
	fp.parent = append(fp.parent[:0], make([]int32, n)...)
	fp.comp = append(fp.comp[:0], make([]int32, n)...)
	fp.memStart = append(fp.memStart[:0], make([]int32, n+1)...)
	fp.members = append(fp.members[:0], make([]int32, n)...)
	fp.inClo = append(fp.inClo[:0], make([]bool, n)...)
	fp.compConst = append(fp.compConst[:0], make([]string, n)...)
	fp.compHas = append(fp.compHas[:0], make([]bool, n)...)
	for i := range fp.parent {
		fp.parent[i] = int32(i)
	}
	fp.armed, fp.roots = fp.armed[:0], fp.roots[:0]
	for i := range s.sigma {
		cc := &s.sigma[i]
		switch {
		case !s.alive(i):
			fp.armed = append(fp.armed, -1)
		case cc.c.Equality:
			fp.allFD = false
			fp.armed = append(fp.armed, -1)
			fp.parent[fp.find(int32(cc.lhs[0]))] = fp.find(int32(cc.rhs[0]))
		default:
			fp.allFD = fp.allFD && cc.isFD
			fp.armed = append(fp.armed, int32(len(cc.lhs)))
			if len(cc.lhs) == 0 {
				fp.roots = append(fp.roots, int32(i))
			}
		}
	}
	for p := range fp.comp {
		fp.comp[p] = fp.find(int32(p))
		fp.memStart[fp.comp[p]+1]++
	}
	for q := 0; q < n; q++ {
		fp.memStart[q+1] += fp.memStart[q]
	}
	// Fill using memStart as cursors, then shift back.
	for p, q := range fp.comp {
		fp.members[fp.memStart[q]] = int32(p)
		fp.memStart[q]++
	}
	copy(fp.memStart[1:], fp.memStart[:n])
	fp.memStart[0] = 0
	fp.dirty = false
}

// addClo adds a position to the closure set and propagation queue.
func (fp *fastPath) addClo(p int32) {
	if !fp.inClo[p] {
		fp.inClo[p] = true
		fp.cloQ = append(fp.cloQ, p)
	}
}

// reaches closes inClo under the skeleton FDs (counter algorithm over the
// session's LHS-position index) and the equality components, stopping as
// soon as target enters it. It reports whether target did.
func (fp *fastPath) reaches(s *session, target int) bool {
	for qh := 0; qh < len(fp.cloQ) && !fp.inClo[target]; qh++ {
		p := fp.cloQ[qh]
		for _, ci := range s.colCFDs[s.colStart[p]:s.colStart[p+1]] {
			if fp.missing[ci] > 0 {
				fp.missing[ci]--
				if fp.missing[ci] == 0 {
					fp.addClo(int32(s.sigma[ci].rhs[0]))
				}
			}
		}
		q := fp.comp[p]
		for _, m := range fp.members[fp.memStart[q]:fp.memStart[q+1]] {
			fp.addClo(m)
		}
	}
	return fp.inClo[target]
}

// addCompConst records a potential constant for a column component,
// reporting false when the component could now see two distinct constants
// (a potential chase conflict). A component's first constant queues it
// for the firing analysis.
func (fp *fastPath) addCompConst(q int32, c string) bool {
	if !fp.compHas[q] {
		fp.compHas[q] = true
		fp.compConst[q] = c
		fp.compQ = append(fp.compQ, q)
		return true
	}
	return fp.compConst[q] == c
}

// fire records that the constant-RHS CFD i could fire: its RHS column
// joins the closure seeds and its constant joins the RHS component,
// reporting false on a potential conflict.
func (s *session) fire(i int32) bool {
	fp := &s.fp
	cc := &s.sigma[i]
	fp.addClo(int32(cc.rhs[0]))
	return fp.addCompConst(fp.comp[cc.rhs[0]], cc.c.RHS[0].Pat.Const)
}

// fireAll runs the reject regime's firing analysis over φ's pinned
// constants, reporting false when the fast path must abstain.
func (s *session) fireAll() bool {
	fp := &s.fp
	for p, on := range s.sharedOn {
		if on && !s.sharedPat[p].Wildcard && !fp.addCompConst(fp.comp[p], s.sharedPat[p].Const) {
			return false
		}
	}
	for _, i := range s.noConst {
		if fp.armed[i] >= 0 && s.sigma[i].constRHS && !s.fire(i) {
			return false
		}
	}
	s.newEpoch()
	for qh := 0; qh < len(fp.compQ); qh++ {
		q := fp.compQ[qh]
		c := fp.compConst[q]
		for _, p := range fp.members[fp.memStart[q]:fp.memStart[q+1]] {
			for _, e := range s.constIdx[s.constStart[p]:s.constStart[p+1]] {
				if e.val == c && fp.armed[e.cfd] >= 0 && s.sigma[e.cfd].constRHS &&
					s.bump(e.cfd) == s.nConst[e.cfd] && !s.fire(e.cfd) {
					return false
				}
			}
		}
	}
	return true
}

// fastImpliesEquality handles equality queries t[A] = t[B] with A ≠ B:
// under pure FDs the single-row chase equates nothing across columns.
func (s *session) fastImpliesEquality() (decided, result bool) {
	if s.anyFinite {
		return false, false
	}
	if s.fp.dirty {
		s.fp.rebuild(s)
	}
	if s.fp.allFD {
		return true, false
	}
	return false, false
}

// fastImplies attempts to decide Σ |= φ for a standard normal-form φ whose
// LHS patterns are already loaded into sharedOn/sharedPat. It returns
// decided=false when the full chase must run.
func (s *session) fastImplies(phi *cfd.CFD, rhsPos int) (decided, result bool) {
	if s.anyFinite {
		return false, false
	}
	fp := &s.fp
	if s.idxDirty {
		s.buildColIndex()
	}
	if fp.dirty {
		fp.rebuild(s)
	}
	clear(fp.inClo)
	clear(fp.compHas)
	fp.missing = append(fp.missing[:0], fp.armed...)
	fp.cloQ, fp.compQ = fp.cloQ[:0], fp.compQ[:0]

	// Seed with φ's LHS positions and the empty-LHS CFDs' RHS.
	for p, on := range s.sharedOn {
		if on {
			fp.addClo(int32(p))
		}
	}
	for _, i := range fp.roots {
		fp.addClo(int32(s.sigma[i].rhs[0]))
	}

	rhs := phi.RHS[0]
	if fp.allFD {
		// Exact regime: no constants, no equality CFDs, no conflicts. The
		// chase equates the rows exactly on closure(X); an RHS column term
		// is a constant only when φ itself pins it on the LHS.
		if !fp.reaches(s, rhsPos) {
			return true, false
		}
		if rhs.Pat.Wildcard {
			return true, true
		}
		return true, s.sharedOn[rhsPos] && !s.sharedPat[rhsPos].Wildcard &&
			s.sharedPat[rhsPos].Const == rhs.Pat.Const
	}

	// Reject regime. A constant-RHS CFD that could fire binds both rows to
	// the same constant, equating its RHS column without any class merge;
	// two distinct constants in a component could make the chase conflict
	// (φ vacuously implied), so abstain.
	if !s.fireAll() {
		return false, false
	}
	if !fp.reaches(s, rhsPos) {
		return true, false // rows provably never agree on the RHS column
	}
	return false, false
}
