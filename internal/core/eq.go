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
// CoverSession computes every cover: the one-shot PropCFDSPC and
// PropCFDSPCU entry points run a fresh session once, and a session kept
// across calls keeps one (db, view) pair compiled across a stream of Σ
// revisions: consecutive Cover calls diff the incoming Σ against the last
// one (propagation.DiffSigma), migrate the pair memo across the edit, and
// re-certify only what the delta could have changed — the incremental path
// the daemon's PUT and PATCH sigma endpoints are built on.
package core

import (
	"fmt"
	"sort"

	"cfdprop/internal/algebra"
	"cfdprop/internal/cfd"
)

// EQ partitions view-side attributes into equivalence classes forced equal
// by the view and Σ, each with an optional constant key (§4.2).
type EQ struct {
	parent map[string]string
	key    map[string]string // root -> constant key
	// Inconsistent is set when some class acquires two distinct keys; then
	// the view is empty for every source satisfying Σ (Lemma 4.5).
	Inconsistent bool
	// ConflictAttr/ConflictA/ConflictB describe the first key conflict.
	ConflictAttr         string
	ConflictA, ConflictB string
}

func newEQ(attrs []string) *EQ {
	e := &EQ{parent: make(map[string]string, len(attrs)), key: make(map[string]string)}
	for _, a := range attrs {
		e.parent[a] = a
	}
	return e
}

func (e *EQ) find(a string) string {
	r := a
	for e.parent[r] != r {
		r = e.parent[r]
	}
	for e.parent[a] != r {
		e.parent[a], a = r, e.parent[a]
	}
	return r
}

// Key returns the constant key of a's class, if any.
func (e *EQ) Key(a string) (string, bool) {
	k, ok := e.key[e.find(a)]
	return k, ok
}

// setKey assigns a constant key, detecting conflicts. Returns true if the
// state changed.
func (e *EQ) setKey(a, c string) bool {
	r := e.find(a)
	if k, ok := e.key[r]; ok {
		if k != c && !e.Inconsistent {
			e.Inconsistent = true
			e.ConflictAttr, e.ConflictA, e.ConflictB = a, k, c
		}
		return false
	}
	e.key[r] = c
	return true
}

// union merges two classes, reconciling keys. Returns true if changed.
func (e *EQ) union(a, b string) bool {
	ra, rb := e.find(a), e.find(b)
	if ra == rb {
		return false
	}
	ka, hasA := e.key[ra]
	kb, hasB := e.key[rb]
	e.parent[rb] = ra
	switch {
	case hasA && hasB && ka != kb:
		if !e.Inconsistent {
			e.Inconsistent = true
			e.ConflictAttr, e.ConflictA, e.ConflictB = a, ka, kb
		}
	case !hasA && hasB:
		e.key[ra] = kb
	}
	delete(e.key, rb)
	return true
}

// Classes returns the classes restricted to the given attribute subset,
// sorted for determinism; singleton classes without keys are included.
type Class struct {
	Members []string
	Key     string
	HasKey  bool
}

func (e *EQ) Classes(subset []string) []Class {
	byRoot := make(map[string][]string)
	for _, a := range subset {
		r := e.find(a)
		byRoot[r] = append(byRoot[r], a)
	}
	roots := make([]string, 0, len(byRoot))
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Strings(roots)
	out := make([]Class, 0, len(roots))
	for _, r := range roots {
		members := byRoot[r]
		sort.Strings(members)
		k, ok := e.key[r]
		out = append(out, Class{Members: members, Key: k, HasKey: ok})
	}
	return out
}

// Rep returns a representative map attr -> rep(eq(attr)), preferring the
// lexicographically smallest member that lies in prefer (the projection
// list Y), falling back to the smallest member overall (Fig. 2 line 8).
func (e *EQ) Rep(all []string, prefer map[string]bool) map[string]string {
	best := make(map[string]string)  // root -> best member
	bestInY := make(map[string]bool) // root -> best member is preferred
	for _, a := range all {
		r := e.find(a)
		cur, ok := best[r]
		switch {
		case !ok:
			best[r], bestInY[r] = a, prefer[a]
		case prefer[a] && !bestInY[r]:
			best[r], bestInY[r] = a, true
		case prefer[a] == bestInY[r] && a < cur:
			best[r] = a
		}
	}
	rep := make(map[string]string, len(all))
	for _, a := range all {
		rep[a] = best[e.find(a)]
	}
	return rep
}

// ComputeEQ computes the attribute equivalence classes of Es = σF(Ec)
// under the selection condition F and the renamed source CFDs ΣV.
//
// Seeds: every F-atom A = B unions two classes; every A = 'c' sets a key.
// Closure rules, iterated to fixpoint:
//   - equality CFDs (A → B, (x ‖ x)) union their classes;
//   - constant CFDs (A → A, (_ ‖ c)) set keys;
//   - a normal CFD (X → B, tp) with a constant RHS pattern c sets key(B)=c
//     as soon as each constant LHS pattern entry tp[D] equals key(eq(D))
//     (single-tuple semantics: every Es tuple then matches tp[X]).
//
// A key conflict marks the EQ inconsistent, meaning the view is always
// empty (Example 3.1).
func ComputeEQ(q *algebra.SPC, sigmaV []*cfd.CFD) (*EQ, error) {
	attrs := q.EsAttrs()
	e := newEQ(attrs)
	known := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		known[a] = true
	}
	for _, atom := range q.Selection {
		if !known[atom.Left] {
			return nil, fmt.Errorf("core: selection references unknown attribute %q", atom.Left)
		}
		if atom.IsConst {
			e.setKey(atom.Left, atom.Right)
		} else {
			if !known[atom.Right] {
				return nil, fmt.Errorf("core: selection references unknown attribute %q", atom.Right)
			}
			e.union(atom.Left, atom.Right)
		}
	}

	norm := cfd.NormalizeAll(sigmaV)
	for _, c := range norm {
		for a := range c.Attrs() {
			if !known[a] {
				return nil, fmt.Errorf("core: CFD %s references attribute %q outside attr(Es)", c, a)
			}
		}
	}
	for changed := true; changed && !e.Inconsistent; {
		changed = false
		for _, c := range norm {
			if c.Equality {
				if e.union(c.LHS[0].Attr, c.RHS[0].Attr) {
					changed = true
				}
				continue
			}
			r := c.RHS[0]
			if r.Pat.Wildcard {
				continue
			}
			applies := true
			for _, it := range c.LHS {
				if it.Pat.Wildcard {
					continue
				}
				k, ok := e.Key(it.Attr)
				if !ok || k != it.Pat.Const {
					applies = false
					break
				}
			}
			if applies && e.setKey(r.Attr, r.Pat.Const) {
				changed = true
			}
		}
	}
	return e, nil
}

// EQ2CFD converts the equivalence classes (restricted to the projection
// attributes) into view CFDs, per Fig. 4: classes with a constant key emit
// (A → A, (_ ‖ key)) for each member; keyless classes emit a chain of
// equality CFDs (A → B, (x ‖ x)) linking their members.
func EQ2CFD(viewName string, e *EQ, projection []string) []*cfd.CFD {
	var out []*cfd.CFD
	for _, cl := range e.Classes(projection) {
		if cl.HasKey {
			for _, a := range cl.Members {
				out = append(out, cfd.NewConstant(viewName, a, cl.Key))
			}
			continue
		}
		for i := 1; i < len(cl.Members); i++ {
			out = append(out, cfd.NewEquality(viewName, cl.Members[i-1], cl.Members[i]))
		}
	}
	return out
}

// ApplyEQ rewrites one workspace CFD under the equivalence classes
// (Fig. 2 lines 7–10, extended): attributes are replaced by their class
// representatives; duplicate LHS entries are merged (conjunction of
// patterns); entries whose class has a constant key are discharged. It
// returns nil when the CFD becomes inert (premise unsatisfiable on the
// view) or trivial — in both cases the CFD contributes nothing beyond Σd.
func ApplyEQ(c *cfd.CFD, e *EQ, rep map[string]string) *cfd.CFD {
	if c.Equality {
		a, b := rep[c.LHS[0].Attr], rep[c.RHS[0].Attr]
		if a == b {
			return nil // captured by EQ, regenerated by EQ2CFD as needed
		}
		return cfd.NewEquality(c.Relation, a, b)
	}
	// Merge LHS entries under the representative mapping, in order of
	// first appearance: two patterns on one attribute conjoin, as ⊕ does.
	lhs := make([]cfd.Item, 0, len(c.LHS))
	for _, it := range c.LHS {
		var ok bool
		if lhs, ok = mergeItem(lhs, cfd.Item{Attr: rep[it.Attr], Pat: it.Pat}); !ok {
			return nil // premise requires two distinct constants: inert
		}
	}
	// Discharge keyed entries in place.
	kept := lhs[:0]
	for _, it := range lhs {
		if k, ok := e.Key(it.Attr); ok {
			if !it.Pat.Wildcard && it.Pat.Const != k {
				return nil // premise contradicts the forced column constant
			}
			continue // condition always holds: drop the entry
		}
		kept = append(kept, it)
	}
	r := c.RHS[0]
	ra := rep[r.Attr]
	if k, ok := e.Key(ra); ok {
		if r.Pat.Wildcard || r.Pat.Const == k {
			return nil // subsumed by the Σd constant CFD on ra
		}
		// RHS constant contradicts the forced column constant: the premise
		// must be unsatisfiable on the view. Keep the CFD; together with
		// Σd it encodes that no view tuple matches the premise.
	}
	out := &cfd.CFD{Relation: c.Relation, LHS: kept, RHS: []cfd.Item{{Attr: ra, Pat: r.Pat}}}
	if out.IsTrivial() {
		return nil
	}
	return out
}
