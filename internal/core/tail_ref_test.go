package core

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"cfdprop/internal/algebra"
	"cfdprop/internal/cfd"
	"cfdprop/internal/rel"
)

// This file keeps Fig. 2's tail (lines 2-12) on attribute names and
// constant strings, as the reference the compiled tail is compared with:
// renameToView, ComputeEQ, reduceByEQ with ApplyEQ, RBR over refGammaSet,
// and EQ2CFD. refTail composes them as tailView.run composes the compiled
// steps.

// refTail runs Fig. 2 lines 2-12 on strings over the normalized line-1
// output sigma.
func refTail(db *rel.DBSchema, view *algebra.SPC, sigma []*cfd.CFD, cfg rbrConfig) (tailSets, error) {
	sigmaV := renameToView(db, view, sigma)
	eq, err := ComputeEQ(view, sigmaV)
	if err != nil {
		return tailSets{}, err
	}
	if eq.Inconsistent {
		return tailSets{empty: true}, nil
	}
	reduced, dropAttrs := reduceByEQ(view, eq, sigmaV)
	sigmaC, truncated, err := refRunRBR(reduced, dropAttrs, cfg)
	if err != nil {
		return tailSets{}, err
	}
	sigmaD := EQ2CFD(view.Name, eq, projectedEsAttrs(view))
	for _, c := range view.Consts {
		sigmaD = append(sigmaD, cfd.NewConstant(view.Name, c.Attr, c.Value))
	}
	return tailSets{sigmaC: sigmaC, sigmaD: sigmaD, truncated: truncated}, nil
}

// renameToView maps every source CFD along every relation atom over its
// relation: a CFD on S contributes one renamed copy per atom ρj(S)
// (Fig. 2 lines 5-6).
func renameToView(db *rel.DBSchema, view *algebra.SPC, sigma []*cfd.CFD) []*cfd.CFD {
	bySource := make(map[string][]*cfd.CFD)
	for _, c := range sigma {
		bySource[c.Relation] = append(bySource[c.Relation], c)
	}
	var out []*cfd.CFD
	for _, atom := range view.Atoms {
		src := db.Relation(atom.Source)
		nameOf := make(map[string]string, src.Arity())
		for i, a := range src.AttrNames() {
			nameOf[a] = atom.Attrs[i]
		}
		for _, c := range bySource[atom.Source] {
			out = append(out, c.Rename(view.Name, func(a string) string {
				if n, ok := nameOf[a]; ok {
					return n
				}
				return a
			}))
		}
	}
	return cfd.Dedup(out)
}

// esAttrs returns attr(Es): all atom attribute names, in atom order. The
// constant relation's attributes are not included.
func esAttrs(q *algebra.SPC) []string {
	var out []string
	for _, atom := range q.Atoms {
		out = append(out, atom.Attrs...)
	}
	return out
}

// projectedEsAttrs returns the projection attributes that come from Es
// (i.e. excluding constant-relation attributes), which is the attribute
// space EQ ranges over.
func projectedEsAttrs(view *algebra.SPC) []string {
	consts := make(map[string]bool, len(view.Consts))
	for _, c := range view.Consts {
		consts[c.Attr] = true
	}
	var out []string
	for _, y := range view.Projection {
		if !consts[y] {
			out = append(out, y)
		}
	}
	return out
}

// EQ partitions view-side attributes into equivalence classes forced equal
// by the view and Σ, each with an optional constant key (§4.2).
type EQ struct {
	parent map[string]string
	key    map[string]string // root -> constant key
	// Inconsistent is set when some class acquires two distinct keys.
	Inconsistent bool
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
		if k != c {
			e.Inconsistent = true
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
		e.Inconsistent = true
	case !hasA && hasB:
		e.key[ra] = kb
	}
	delete(e.key, rb)
	return true
}

// Class is one equivalence class restricted to an attribute subset.
type Class struct {
	Members []string
	Key     string
	HasKey  bool
}

// Classes returns the classes restricted to the given attribute subset,
// sorted for determinism; singleton classes without keys are included.
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
// under the selection condition F and the renamed source CFDs ΣV, by the
// seeds and closure rules computeEQ documents.
func ComputeEQ(q *algebra.SPC, sigmaV []*cfd.CFD) (*EQ, error) {
	attrs := esAttrs(q)
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
		for _, it := range slices.Concat(c.LHS, c.RHS) {
			if !known[it.Attr] {
				return nil, fmt.Errorf("core: CFD %s references attribute %q outside attr(Es)", c, it.Attr)
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
// attributes) into view CFDs, per Fig. 4.
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

// reduceByEQ applies the domain constraints of Fig. 2 lines 7-10 to every
// view CFD and returns the attributes line 11 eliminates, attr(Es) − Y, in
// atom order. The reduced CFDs may repeat.
func reduceByEQ(view *algebra.SPC, eq *EQ, sigmaV []*cfd.CFD) (reduced []*cfd.CFD, dropAttrs []string) {
	projected := make(map[string]bool, len(view.Projection))
	for _, y := range view.Projection {
		projected[y] = true
	}
	es := esAttrs(view)
	rep := eq.Rep(es, projected)
	for _, c := range sigmaV {
		if r := ApplyEQ(c, eq, rep); r != nil {
			reduced = append(reduced, r)
		}
	}
	for _, a := range es {
		if !projected[a] {
			dropAttrs = append(dropAttrs, a)
		}
	}
	return reduced, dropAttrs
}

// ApplyEQ rewrites one workspace CFD under the equivalence classes, as
// applyEQ does; nil stands for its ok = false.
func ApplyEQ(c *cfd.CFD, e *EQ, rep map[string]string) *cfd.CFD {
	if c.Equality {
		a, b := rep[c.LHS[0].Attr], rep[c.RHS[0].Attr]
		if a == b {
			return nil // captured by EQ, regenerated by EQ2CFD as needed
		}
		return cfd.NewEquality(c.Relation, a, b)
	}
	lhs := make([]cfd.Item, 0, len(c.LHS))
	for _, it := range c.LHS {
		var ok bool
		if lhs, ok = refMergeItem(lhs, cfd.Item{Attr: rep[it.Attr], Pat: it.Pat}); !ok {
			return nil
		}
	}
	kept := lhs[:0]
	for _, it := range lhs {
		if k, ok := e.Key(it.Attr); ok {
			if !it.Pat.Wildcard && it.Pat.Const != k {
				return nil
			}
			continue
		}
		kept = append(kept, it)
	}
	r := c.RHS[0]
	ra := rep[r.Attr]
	if k, ok := e.Key(ra); ok && (r.Pat.Wildcard || r.Pat.Const == k) {
		return nil
	}
	out := &cfd.CFD{Relation: c.Relation, LHS: kept, RHS: []cfd.Item{{Attr: ra, Pat: r.Pat}}}
	if out.IsTrivial() {
		return nil
	}
	return out
}

// refMergeItem is mergeItem on named items.
func refMergeItem(lhs []cfd.Item, it cfd.Item) (out []cfd.Item, ok bool) {
	for k := range lhs {
		if lhs[k].Attr == it.Attr {
			lhs[k].Pat, ok = cfd.Min(lhs[k].Pat, it.Pat)
			return lhs, ok
		}
	}
	return append(lhs, it), true
}

// refResolvent is gammaSet.resolvent on named items: nil stands for its ok
// = false.
func refResolvent(phi1, phi2 *cfd.CFD, a string) *cfd.CFD {
	b := phi2.RHS[0]
	if b.Attr == a {
		return nil
	}
	var lhs []cfd.Item
	ok := true
	for _, it := range phi1.LHS {
		if it.Attr == a {
			return nil
		}
		if lhs, ok = refMergeItem(lhs, it); !ok {
			return nil
		}
	}
	for _, it := range phi2.LHS {
		if it.Attr == a {
			continue
		}
		if lhs, ok = refMergeItem(lhs, it); !ok {
			return nil
		}
	}
	for _, it := range lhs {
		if it.Attr == b.Attr && it.Pat.LE(b.Pat) {
			return nil
		}
	}
	return &cfd.CFD{Relation: phi2.Relation, LHS: lhs, RHS: []cfd.Item{b}}
}

// refGammaSet is gammaSet on named items, keyed by cfd.Key.
type refGammaSet struct {
	members []*cfd.CFD
	keys    []string // keys[i] is members[i]'s cfd.Key
	live    map[string]struct{}
	n       int // live members
	occ     map[string]*refOccurrences
}

type refOccurrences struct {
	members []int
	items   int
}

func newRefGammaSet(dropAttrs []string) *refGammaSet {
	g := &refGammaSet{live: make(map[string]struct{}), occ: make(map[string]*refOccurrences, len(dropAttrs))}
	for _, a := range dropAttrs {
		g.occ[a] = &refOccurrences{}
	}
	return g
}

func (g *refGammaSet) insert(c *cfd.CFD) {
	k := c.Key()
	if _, dup := g.live[k]; dup {
		return
	}
	g.live[k] = struct{}{}
	i := len(g.members)
	g.members, g.keys = append(g.members, c), append(g.keys, k)
	g.n++
	for _, it := range slices.Concat(c.LHS, c.RHS) {
		if o := g.occ[it.Attr]; o != nil {
			o.items++
			if len(o.members) == 0 || o.members[len(o.members)-1] != i {
				o.members = append(o.members, i)
			}
		}
	}
}

func (g *refGammaSet) remove(i int) {
	c := g.members[i]
	g.members[i] = nil
	delete(g.live, g.keys[i])
	g.n--
	for _, it := range slices.Concat(c.LHS, c.RHS) {
		if o := g.occ[it.Attr]; o != nil {
			o.items--
		}
	}
}

func (g *refGammaSet) eliminate(a string, truncate bool) {
	o := g.occ[a]
	var producers, consumers []*cfd.CFD
	var t2A []cfd.Pattern
	for _, i := range o.members {
		c := g.members[i]
		if c == nil {
			continue
		}
		if !c.Equality {
			if c.RHS[0].Attr == a {
				producers = append(producers, c)
			}
			if it, onLHS := c.LHSItem(a); onLHS {
				consumers = append(consumers, c)
				t2A = append(t2A, it.Pat)
			}
		}
		g.remove(i)
	}
	o.members = o.members[:0]
	if truncate {
		return
	}
	for _, p := range producers {
		for k, q := range consumers {
			if !p.RHS[0].Pat.LE(t2A[k]) {
				continue
			}
			if r := refResolvent(p, q, a); r != nil {
				g.insert(r)
			}
		}
	}
}

// refRunRBR is runRBR on named items.
func refRunRBR(gamma []*cfd.CFD, dropAttrs []string, cfg rbrConfig) (out []*cfd.CFD, truncated bool, err error) {
	g := newRefGammaSet(dropAttrs)
	for _, c := range gamma {
		g.insert(c)
	}
	remaining := slices.Clone(dropAttrs)
	ctx := cfg.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	for len(remaining) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		next := 0
		if cfg.order == dropFewestOccurrences {
			for i := 1; i < len(remaining); i++ {
				ci, cn := g.occ[remaining[i]].items, g.occ[remaining[next]].items
				if ci < cn || (ci == cn && remaining[i] < remaining[next]) {
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
	for _, c := range g.members {
		if c != nil {
			out = append(out, c)
		}
	}
	return out, truncated, nil
}
