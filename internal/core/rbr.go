package core

import (
	"context"
	"slices"
)

// dropOrder selects the order in which RBR eliminates non-projected
// attributes. The choice does not affect the result up to equivalence
// (any order yields a cover, Proposition 4.4) but can affect intermediate
// sizes considerably.
type dropOrder int

const (
	// dropFewestOccurrences eliminates next the remaining attribute that
	// the fewest items of Γ name (a CFD naming it on both sides counts
	// twice), ties broken by attribute name. PropCFDSPC uses it.
	dropFewestOccurrences dropOrder = iota
	// dropSequential eliminates attributes in the given order; the tests
	// check Proposition 4.4 against it.
	dropSequential
)

// rbrConfig tunes procedure RBR.
type rbrConfig struct {
	// ctx cancels the run cooperatively between elimination rounds; nil
	// disables.
	ctx   context.Context
	order dropOrder
	// maxCover: when > 0 and Γ grows beyond it, stop generating new
	// resolvents (the polynomial-time heuristic of §1: return a subset of
	// a cover once a predefined bound is reached).
	maxCover int
}

// le is the pattern order ≤ of §4.2 on codes: p ≤ q iff q is '_' or p
// and q are the same constant.
func le(p, q int32) bool { return q < 0 || p == q }

// mergeItem adds it to lhs under ⊕: a position already present keeps its
// place and takes the smaller pattern, and ok is false when the two
// patterns are incomparable (⊕ undefined).
func mergeItem(lhs []item, it item) (out []item, ok bool) {
	for k := range lhs {
		if lhs[k].pos == it.pos {
			switch p := lhs[k].code; {
			case le(p, it.code):
			case le(it.code, p):
				lhs[k].code = it.code
			default:
				return lhs, false
			}
			return lhs, true
		}
	}
	return append(lhs, it), true
}

// trivial reports whether the standard CFD lhs → rhs is trivial (§4.1):
// rhs's position is on the LHS with a pattern ≤ rhs's.
func trivial(lhs []item, rhs item) bool {
	for _, it := range lhs {
		if it.pos == rhs.pos {
			return le(it.code, rhs.code)
		}
	}
	return false
}

// gammaSet is RBR's working set Γ of standard view CFDs, compiled: every
// item is an attr(Es) position and a constant code. Eliminating an
// attribute touches only the members that mention it, found through an
// occurrence index.
//
// Members keep Γ's order: survivors keep their places, new members are
// appended and removed ones are tombstoned. A CFD whose key a live member
// already has is not added, so Γ stays duplicate-free as cfd.Dedup would
// leave it. The key is a member's RHS item and the set of its LHS items
// (no member repeats a position on its LHS: ⊕ merges them), which stand
// one to one for cfd.Key's attribute names and constants; members are
// found by an order-independent hash of the key and compared exactly.
type gammaSet struct {
	items   []item // backing array of the members' LHS items
	members []member
	n       int              // live members
	byHash  map[uint64]int32 // the latest member with each key hash
	rank    []int32          // position -> rank of its attribute name
	// occ indexes the eliminable positions (elim[p]) in Γ.
	occ  []occurrences
	elim []bool

	prod, cons []side // eliminate's buffers, reused across calls
}

// member is one CFD of Γ: its LHS is items[start:end].
type member struct {
	start, end int32
	rhs        item
	next       int32 // the previous member with the same key hash; -1 for none
	live       bool
}

// occurrences indexes one eliminable position in Γ.
type occurrences struct {
	members []int32 // the members mentioning it, removed ones included
	// items is the number of items of live members that name it: a CFD
	// naming it on both sides counts twice.
	items int32
}

// side is a producer or consumer of an elimination: a member and its
// pattern code on the eliminated position.
type side struct{ m, code int32 }

// newGammaSet returns an empty Γ over the view's attr(Es) whose
// eliminable positions are drops.
func newGammaSet(tv *tailView, drops []int32) *gammaSet {
	g := &gammaSet{
		byHash: make(map[uint64]int32),
		rank:   tv.rank,
		occ:    make([]occurrences, len(tv.names)),
		elim:   make([]bool, len(tv.names)),
	}
	for _, p := range drops {
		g.elim[p] = true
	}
	return g
}

func (g *gammaSet) lhs(m *member) []item { return g.items[m.start:m.end] }

// keyHash mixes a member's key; the LHS items are summed, so their order
// does not count. The RHS item is complemented first, so that swapping
// the sides of X → A does not keep the hash.
func keyHash(lhs []item, rhs item) uint64 {
	h := mix(^rhs.packed())
	for _, it := range lhs {
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

func (it item) packed() uint64 { return uint64(uint32(it.pos))<<32 | uint64(uint32(it.code)) }

// sameKey reports whether member m has the key of lhs → rhs. Neither
// repeats a position on its LHS, so equal lengths and containment make the
// LHS item sets equal.
func (g *gammaSet) sameKey(m *member, lhs []item, rhs item) bool {
	if m.rhs != rhs || int(m.end-m.start) != len(lhs) {
		return false
	}
	mine := g.lhs(m)
	for _, it := range lhs {
		if !slices.Contains(mine, it) {
			return false
		}
	}
	return true
}

// insert appends lhs → rhs unless a live member has its key. lhs is
// copied.
func (g *gammaSet) insert(lhs []item, rhs item) {
	h := keyHash(lhs, rhs)
	head, ok := g.byHash[h]
	if !ok {
		head = -1
	}
	for j := head; j >= 0; j = g.members[j].next {
		if m := &g.members[j]; m.live && g.sameKey(m, lhs, rhs) {
			return
		}
	}
	i := int32(len(g.members))
	start := int32(len(g.items))
	g.items = append(g.items, lhs...)
	g.members = append(g.members, member{start: start, end: int32(len(g.items)), rhs: rhs, next: head, live: true})
	g.byHash[h] = i
	g.n++
	for _, it := range lhs {
		g.note(i, it)
	}
	g.note(i, rhs)
}

// note counts member i's item it and indexes i under its position, once
// per position, when that position is eliminable.
func (g *gammaSet) note(i int32, it item) {
	if !g.elim[it.pos] {
		return
	}
	o := &g.occ[it.pos]
	o.items++
	if len(o.members) == 0 || o.members[len(o.members)-1] != i {
		o.members = append(o.members, i)
	}
}

// remove tombstones live member i.
func (g *gammaSet) remove(i int32) {
	m := &g.members[i]
	m.live = false
	g.n--
	for _, it := range g.lhs(m) {
		if g.elim[it.pos] {
			g.occ[it.pos].items--
		}
	}
	if g.elim[m.rhs.pos] {
		g.occ[m.rhs.pos].items--
	}
}

// eliminate removes position a from Γ: Drop(Γ, a) = Res(Γ, a) ∪ Γ[U − {a}].
// The members mentioning a leave, then each A-resolvent of a producer (RHS
// a) and a consumer (a on the LHS), in producer × consumer order, enters
// unless a live member or an earlier resolvent has its key. A pair whose
// t1[A] ≤ t2[A] fails has no resolvent and is skipped before resolvent
// runs; most pairs on the §5 grid fail it. When truncate is true no
// resolvents are added (heuristic mode).
func (g *gammaSet) eliminate(a int32, truncate bool) {
	o := &g.occ[a]
	prod, cons := g.prod[:0], g.cons[:0]
	for _, i := range o.members {
		m := &g.members[i]
		if !m.live {
			continue
		}
		if m.rhs.pos == a {
			prod = append(prod, side{i, m.rhs.code})
		}
		for _, it := range g.lhs(m) {
			if it.pos == a {
				cons = append(cons, side{i, it.code})
				break
			}
		}
		g.remove(i)
	}
	o.members = o.members[:0]
	g.prod, g.cons = prod, cons
	if truncate {
		return
	}
	var buf [20]item
	for _, p := range prod {
		for _, q := range cons {
			if !le(p.code, q.code) {
				continue
			}
			if lhs, rhs, ok := g.resolvent(p.m, q.m, a, buf[:0]); ok {
				g.insert(lhs, rhs)
			}
		}
	}
}

// resolvent builds, in buf, the A-resolvent of members φ1 = (W → A, t1)
// and φ2 = (AZ → B, t2), per §4.2: defined when t1[A] ≤ t2[A] and t1[W] ⊕
// t2[Z] is defined; the result is (WZ → B, (t1[W] ⊕ t2[Z] ‖ t2[B])), its
// LHS in first-appearance order over W then Z. The caller has checked
// that A is on φ2's LHS and t1[A] ≤ t2[A]. ok is false when ⊕ is
// undefined, or the result mentions A or is trivial.
func (g *gammaSet) resolvent(phi1, phi2, a int32, buf []item) (lhs []item, b item, ok bool) {
	m1, m2 := &g.members[phi1], &g.members[phi2]
	b = m2.rhs
	if b.pos == a {
		return nil, b, false
	}
	lhs = buf
	for _, it := range g.lhs(m1) {
		if it.pos == a {
			return nil, b, false // the resolvent must not mention A
		}
		if lhs, ok = mergeItem(lhs, it); !ok {
			return nil, b, false
		}
	}
	for _, it := range g.lhs(m2) {
		if it.pos == a {
			continue
		}
		if lhs, ok = mergeItem(lhs, it); !ok {
			return nil, b, false
		}
	}
	if trivial(lhs, b) {
		return nil, b, false
	}
	return lhs, b, true
}

// runRBR computes RBR(Γ, drops) in place: afterwards Γ's live members are
// a cover of Γ+ restricted to the positions outside drops (Proposition
// 4.4), free of duplicates. truncated reports that the maxCover heuristic
// fired, in which case they are a subset of a cover rather than a full
// cover.
func runRBR(g *gammaSet, drops []int32, cfg rbrConfig) (truncated bool, err error) {
	remaining := slices.Clone(drops)
	var done <-chan struct{}
	if cfg.ctx != nil {
		done = cfg.ctx.Done()
	}
	for len(remaining) > 0 {
		if done != nil {
			select {
			case <-done:
				return false, cfg.ctx.Err()
			default:
			}
		}
		next := 0
		if cfg.order == dropFewestOccurrences {
			for i := 1; i < len(remaining); i++ {
				ci, cn := g.occ[remaining[i]].items, g.occ[remaining[next]].items
				if ci < cn || (ci == cn && g.rank[remaining[i]] < g.rank[remaining[next]]) {
					next = i
				}
			}
		}
		a := remaining[next]
		remaining = append(remaining[:next], remaining[next+1:]...)
		truncate := cfg.maxCover > 0 && g.n > cfg.maxCover
		if truncate {
			truncated = true
		}
		g.eliminate(a, truncate)
	}
	return truncated, nil
}
