// Package core implements the paper's primary contribution: algorithm
// PropCFD_SPC (Fan et al., VLDB 2008, Fig. 2), which computes a minimal
// cover of all CFDs propagated from source CFDs via an SPC view, together
// with its subroutines ComputeEQ (attribute equivalence classes under the
// selection condition and the domain-constraint CFDs of Σ), EQ2CFD
// (Fig. 4) and RBR, reduction by resolution (Fig. 3, extending Gottlob's
// algorithm for embedded FDs to CFDs). RBR is variable elimination over
// one working set of CFDs: an occurrence index lists the CFDs that mention
// each attribute, so eliminating one touches only those.
//
// Fig. 2's tail (lines 2-12) runs on integers: each view's attr(Es)
// becomes positions, compiled once per view, and each call's constants
// become codes (tail.go). Strings come back once, for RBR's output and
// Σd, before the line-13 MinCover.
//
// CoverSession computes every cover: the one-shot PropCFDSPC and
// PropCFDSPCU entry points run a fresh session once, and a session kept
// across calls keeps one (db, view) pair compiled across a stream of Σ
// revisions: consecutive Cover calls diff the incoming Σ against the last
// one (propagation.DiffSigma), migrate the pair memo across the edit, and
// re-certify only what the delta could have changed — the incremental path
// the daemon's PUT and PATCH sigma endpoints are built on.
package core

import (
	"cmp"
	"fmt"
	"slices"

	"cfdprop/internal/cfd"
)

// eqClasses is EQ (§4.2) on attr(Es) positions: a union-find whose roots
// carry a constant key code, -1 for none.
type eqClasses struct {
	parent []int32
	key    []int32 // root -> constant key code, -1 for none
	// inconsistent is set when some class acquires two distinct keys; then
	// the view is empty for every source satisfying Σ (Lemma 4.5).
	inconsistent bool
}

func (e *eqClasses) find(a int32) int32 {
	r := a
	for e.parent[r] != r {
		r = e.parent[r]
	}
	for e.parent[a] != r {
		e.parent[a], a = r, e.parent[a]
	}
	return r
}

// keyOf returns the key code of a's class, -1 for none.
func (e *eqClasses) keyOf(a int32) int32 { return e.key[e.find(a)] }

// setKey assigns a constant key, detecting conflicts. Returns true if the
// state changed.
func (e *eqClasses) setKey(a, c int32) bool {
	r := e.find(a)
	if k := e.key[r]; k >= 0 {
		if k != c {
			e.inconsistent = true
		}
		return false
	}
	e.key[r] = c
	return true
}

// union merges two classes under a's root, reconciling keys. Returns true
// if changed.
func (e *eqClasses) union(a, b int32) bool {
	ra, rb := e.find(a), e.find(b)
	if ra == rb {
		return false
	}
	e.parent[rb] = ra
	switch ka, kb := e.key[ra], e.key[rb]; {
	case ka >= 0 && kb >= 0 && ka != kb:
		e.inconsistent = true
	case ka < 0:
		e.key[ra] = kb
	}
	e.key[rb] = -1
	return true
}

// computeEQ computes the attribute equivalence classes of Es = σF(Ec)
// under the selection condition F and the renamed source CFDs ΣV
// (Fig. 2 line 2), then the representatives of line 8.
//
// Seeds: every F-atom A = B unions two classes; every A = 'c' sets a key.
// Closure rules, iterated over ΣV in order to fixpoint:
//   - equality CFDs (A → B, (x ‖ x)) union their classes;
//   - a standard CFD (X → B, tp) with a constant RHS pattern c sets
//     key(B) = c as soon as each constant LHS pattern entry tp[D] equals
//     key(eq(D)) (single-tuple semantics: every Es tuple then matches
//     tp[X]); a constant CFD (A → A, (_ ‖ c)) is the case X = {A}.
//
// A key conflict marks the classes inconsistent, meaning the view is
// always empty (Example 3.1). The unions run in F's order and then ΣV's,
// each keeping its first argument's root, so the roots, and with them
// Σd's order (see eq2CFD), depend only on the order of the input.
func (r *tailRun) computeEQ() error {
	tv := r.tv
	n := len(tv.names)
	e := &r.eq
	e.parent, e.key, e.inconsistent = make([]int32, n), make([]int32, n), false
	for p := range e.parent {
		e.parent[p], e.key[p] = int32(p), -1
	}
	for _, atom := range tv.view.Selection {
		l, ok := tv.pos[atom.Left]
		if !ok {
			return fmt.Errorf("core: selection references unknown attribute %q", atom.Left)
		}
		if atom.IsConst {
			e.setKey(l, r.code(atom.Right))
			continue
		}
		rp, ok := tv.pos[atom.Right]
		if !ok {
			return fmt.Errorf("core: selection references unknown attribute %q", atom.Right)
		}
		e.union(l, rp)
	}
	for changed := true; changed && !e.inconsistent; {
		changed = false
		for j, ri := range tv.atomRel {
			off := tv.off[j]
			for _, c := range r.src[ri] {
				if c.equality {
					if e.union(c.lhs[0].pos+off, c.rhs.pos+off) {
						changed = true
					}
					continue
				}
				if c.rhs.code < 0 {
					continue
				}
				applies := true
				for _, it := range c.lhs {
					if it.code >= 0 && e.keyOf(it.pos+off) != it.code {
						applies = false
						break
					}
				}
				if applies && e.setKey(c.rhs.pos+off, c.rhs.code) {
					changed = true
				}
			}
		}
	}
	// Rep (line 8): each class is represented by its projected member of
	// smallest name, or by its member of smallest name when none is
	// projected.
	best := make([]int32, n) // root -> representative
	for p := range best {
		best[p] = -1
	}
	for p := int32(0); p < int32(n); p++ {
		root := e.find(p)
		if b := best[root]; b < 0 || tv.projected[p] && !tv.projected[b] ||
			tv.projected[p] == tv.projected[b] && tv.rank[p] < tv.rank[b] {
			best[root] = p
		}
	}
	r.rep = make([]int32, n)
	for p := int32(0); p < int32(n); p++ {
		r.rep[p] = best[e.find(p)]
	}
	return nil
}

// applyEQ rewrites source CFD c, renamed along the atom whose columns start
// at off, under the equivalence classes (Fig. 2 lines 7–10, extended):
// attributes are replaced by their class representatives; duplicate LHS
// entries are merged (conjunction of patterns, as ⊕ does), in order of
// first appearance; entries whose class has a constant key are
// discharged. The LHS is built in buf. ok is false when the CFD becomes
// inert (premise unsatisfiable on the view) or trivial — in both cases it
// contributes nothing beyond Σd. c is a standard CFD: an equality CFD's
// two sides share a class (computeEQ unioned them), so it is captured by
// EQ and regenerated by eq2CFD as needed.
func (r *tailRun) applyEQ(c *srcCFD, off int32, buf []item) (lhs []item, rhs item, ok bool) {
	lhs = buf[:0]
	for _, it := range c.lhs {
		if lhs, ok = mergeItem(lhs, item{r.rep[it.pos+off], it.code}); !ok {
			return nil, rhs, false // premise requires two distinct constants: inert
		}
	}
	// Discharge keyed entries in place.
	kept := lhs[:0]
	for _, it := range lhs {
		if k := r.eq.keyOf(it.pos); k >= 0 {
			if it.code >= 0 && it.code != k {
				return nil, rhs, false // premise contradicts the forced column constant
			}
			continue // condition always holds: drop the entry
		}
		kept = append(kept, it)
	}
	rhs = item{r.rep[c.rhs.pos+off], c.rhs.code}
	if k := r.eq.keyOf(rhs.pos); k >= 0 {
		if rhs.code < 0 || rhs.code == k {
			return nil, rhs, false // subsumed by the Σd constant CFD on the RHS
		}
		// RHS constant contradicts the forced column constant: the premise
		// must be unsatisfiable on the view. Keep the CFD; together with
		// Σd it encodes that no view tuple matches the premise.
	}
	if trivial(kept, rhs) {
		return nil, rhs, false
	}
	return kept, rhs, true
}

// eq2CFD converts the equivalence classes, restricted to the projected
// attr(Es) attributes, into view CFDs per Fig. 4 (line 12): classes with a
// constant key emit (A → A, (_ ‖ key)) for each member; keyless classes
// emit a chain of equality CFDs (A → B, (x ‖ x)) linking their members.
// Classes come in the order of their roots' names, members in name order.
func (r *tailRun) eq2CFD() []*cfd.CFD {
	tv := r.tv
	type member struct{ root, pos int32 }
	ms := make([]member, len(tv.projEs))
	for i, p := range tv.projEs {
		ms[i] = member{r.eq.find(p), p}
	}
	slices.SortFunc(ms, func(a, b member) int {
		if c := cmp.Compare(tv.rank[a.root], tv.rank[b.root]); c != 0 {
			return c
		}
		return cmp.Compare(tv.rank[a.pos], tv.rank[b.pos])
	})
	var out []*cfd.CFD
	for i, m := range ms {
		if k := r.eq.key[m.root]; k >= 0 {
			out = append(out, cfd.NewConstant(tv.view.Name, tv.names[m.pos], r.strs[k]))
		} else if i > 0 && ms[i-1].root == m.root {
			out = append(out, cfd.NewEquality(tv.view.Name, tv.names[ms[i-1].pos], tv.names[m.pos]))
		}
	}
	return out
}
