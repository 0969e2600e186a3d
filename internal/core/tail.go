package core

import (
	"cmp"
	"fmt"
	"slices"

	"cfdprop/internal/algebra"
	"cfdprop/internal/cfd"
	"cfdprop/internal/rel"
)

// item is one compiled CFD item: a position and its pattern's constant
// code, -1 for the wildcard. A source CFD's positions are its relation's
// columns; a view CFD's are attr(Es) positions.
type item struct{ pos, code int32 }

// tailView is a view compiled for Fig. 2's tail: attr(Es), in atom order,
// as positions, each with the rank of its name among attr(Es) (the three
// tie-breaks that compare names — Rep's smallest member, RBR's
// fewest-occurrences tie and Σd's class order — compare ranks), and the
// atoms' column offsets. Atom j's source column i is position off[j]+i.
// NewCoverSession compiles each disjunct's once.
type tailView struct {
	view       *algebra.SPC
	viewSchema *rel.Schema
	names      []string         // position -> attribute name
	rank       []int32          // position -> rank of its name
	pos        map[string]int32 // attribute name -> position
	projected  []bool
	off        []int32 // atom j's columns start at position off[j]
	atomRel    []int32 // atom j ranges over source relation srcs[atomRel[j]]
	srcs       []*rel.Schema
	relIdx     map[string]int32 // source relation name -> index into srcs
	drops      []int32          // attr(Es) − Y, in atom order: line 11 eliminates them
	projEs     []int32          // Y ∩ attr(Es), in projection order: Σd ranges over them
}

// newTailView compiles a validated SPC view.
func newTailView(db *rel.DBSchema, view *algebra.SPC, viewSchema *rel.Schema) *tailView {
	tv := &tailView{view: view, viewSchema: viewSchema, pos: make(map[string]int32), relIdx: make(map[string]int32)}
	for _, atom := range view.Atoms {
		ri, ok := tv.relIdx[atom.Source]
		if !ok {
			ri = int32(len(tv.srcs))
			tv.relIdx[atom.Source] = ri
			tv.srcs = append(tv.srcs, db.Relation(atom.Source))
		}
		tv.atomRel = append(tv.atomRel, ri)
		tv.off = append(tv.off, int32(len(tv.names)))
		for _, a := range atom.Attrs {
			tv.pos[a] = int32(len(tv.names))
			tv.names = append(tv.names, a)
		}
	}
	n := len(tv.names)
	byName := make([]int32, n)
	for p := range byName {
		byName[p] = int32(p)
	}
	slices.SortFunc(byName, func(a, b int32) int { return cmp.Compare(tv.names[a], tv.names[b]) })
	tv.rank = make([]int32, n)
	for r, p := range byName {
		tv.rank[p] = int32(r)
	}
	tv.projected = make([]bool, n)
	for _, y := range view.Projection {
		if p, ok := tv.pos[y]; ok {
			tv.projected[p] = true
			tv.projEs = append(tv.projEs, p)
		}
	}
	for p := int32(0); p < int32(n); p++ {
		if !tv.projected[p] {
			tv.drops = append(tv.drops, p)
		}
	}
	return tv
}

// srcCFD is one line-1 CFD compiled on its source relation's columns.
type srcCFD struct {
	lhs      []item
	rhs      item
	equality bool
}

// tailRun is one tail call's compiled state: the constant codes, the
// line-1 CFDs of each relation an atom ranges over, and EQ.
type tailRun struct {
	tv    *tailView
	codes map[string]int32
	strs  []string // code -> constant
	// src[ri] holds the CFDs on source relation tv.srcs[ri], in order.
	// Lines 5-6 rename each along each atom over the relation, so ΣV is,
	// atom by atom, the atom's relation's CFDs shifted by its column
	// offset. ΣV keeps a CFD that an earlier one repeats (same cfd.Key),
	// where the string tail drops it: the repeat only re-applies a union
	// or key rule of EQ, whose classes, roots and keys it cannot change,
	// and Γ drops its reduced form, the earlier copy's.
	src [][]srcCFD
	eq  eqClasses
	rep []int32 // position -> its class's representative (line 8)
}

// code returns the code of constant s, minting one on first sight.
func (r *tailRun) code(s string) int32 {
	c, ok := r.codes[s]
	if !ok {
		c = int32(len(r.strs))
		r.codes[s] = c
		r.strs = append(r.strs, s)
	}
	return c
}

// compile compiles the normalized line-1 output sigma for the tail: the
// CFDs on relations no atom ranges over are dropped, and the rest are
// compiled once each, on their relation's columns.
func (tv *tailView) compile(sigma []*cfd.CFD) (*tailRun, error) {
	n, consts := 0, 0
	for _, c := range sigma {
		if _, ok := tv.relIdx[c.Relation]; ok {
			n += len(c.LHS) + 1
			for _, it := range c.LHS {
				if !it.Pat.Wildcard {
					consts++
				}
			}
		}
	}
	r := &tailRun{tv: tv, codes: make(map[string]int32, consts+1), src: make([][]srcCFD, len(tv.srcs))}
	// One backing array, never grown, holds every CFD's LHS items.
	items := make([]item, 0, n)
	for _, c := range sigma {
		ri, ok := tv.relIdx[c.Relation]
		if !ok {
			continue
		}
		var sc srcCFD
		var err error
		if sc, items, err = r.compileCFD(tv.srcs[ri], c, items); err != nil {
			return nil, err
		}
		r.src[ri] = append(r.src[ri], sc)
	}
	return r, nil
}

// compileCFD compiles c, a normalized CFD on source relation s, on s's
// columns; its LHS items are appended to items.
func (r *tailRun) compileCFD(s *rel.Schema, c *cfd.CFD, items []item) (srcCFD, []item, error) {
	start := len(items)
	for k := 0; k <= len(c.LHS); k++ {
		it := c.RHS[0]
		if k < len(c.LHS) {
			it = c.LHS[k]
		}
		col, ok := s.Index(it.Attr)
		if !ok {
			return srcCFD{}, items, fmt.Errorf("core: CFD %s references attribute %q outside its relation", c, it.Attr)
		}
		items = append(items, item{int32(col), r.patCode(it.Pat)})
	}
	// The RHS item is compiled last and leaves the backing array.
	end := len(items) - 1
	return srcCFD{lhs: items[start:end:end], rhs: items[end], equality: c.Equality}, items[:end], nil
}

// patCode returns a pattern's code: -1 for the wildcard.
func (r *tailRun) patCode(p cfd.Pattern) int32 {
	if p.Wildcard {
		return -1
	}
	return r.code(p.Const)
}

// reduce applies the domain constraints of Fig. 2 lines 7-10 to ΣV, atom
// by atom, and returns Γ, the reduced CFDs without repeats, ready for
// line 11.
func (r *tailRun) reduce() *gammaSet {
	g := newGammaSet(r.tv, r.tv.drops)
	var buf [20]item
	for j, ri := range r.tv.atomRel {
		off := r.tv.off[j]
		for k := range r.src[ri] {
			c := &r.src[ri][k]
			if c.equality {
				continue // captured by EQ (see applyEQ)
			}
			if lhs, rhs, ok := r.applyEQ(c, off, buf[:0]); ok {
				g.insert(lhs, rhs)
			}
		}
	}
	return g
}

// cfds returns Γ's live members as view CFDs, in order.
func (r *tailRun) cfds(g *gammaSet) []*cfd.CFD {
	n := 0
	for i := range g.members {
		if m := &g.members[i]; m.live {
			n += int(m.end-m.start) + 1
		}
	}
	items := make([]cfd.Item, n) // one backing array for every member's items
	out := make([]*cfd.CFD, 0, g.n)
	for i := range g.members {
		m := &g.members[i]
		if !m.live {
			continue
		}
		k := int(m.end - m.start)
		its := items[: k+1 : k+1]
		items = items[k+1:]
		for j, it := range g.lhs(m) {
			its[j] = r.cfdItem(it)
		}
		its[k] = r.cfdItem(m.rhs)
		out = append(out, &cfd.CFD{Relation: r.tv.view.Name, LHS: its[:k:k], RHS: its[k:]})
	}
	return out
}

func (r *tailRun) cfdItem(it item) cfd.Item {
	if it.code < 0 {
		return cfd.Item{Attr: r.tv.names[it.pos], Pat: cfd.Any()}
	}
	return cfd.Item{Attr: r.tv.names[it.pos], Pat: cfd.Eq(r.strs[it.code])}
}

// tailSets is what Fig. 2 lines 2-12 hand line 13.
type tailSets struct {
	sigmaC, sigmaD []*cfd.CFD // RBR's output, and EQ2CFD's plus Rc's constant CFDs
	truncated      bool       // the MaxCoverSize heuristic fired in RBR
	empty          bool       // EQ is inconsistent: the view is always empty
}

// run runs Fig. 2 lines 2-12 over the line-1 output sigma (normalized).
func (tv *tailView) run(sigma []*cfd.CFD, cfg rbrConfig) (tailSets, error) {
	// Lines 5-6 (done before ComputeEQ, which consumes the renamed CFDs):
	// handle the Cartesian product by renaming every source CFD along each
	// relation atom it applies to.
	r, err := tv.compile(sigma)
	if err != nil {
		return tailSets{}, err
	}
	// Line 2: EQ := ComputeEQ(Es, Σ); lines 3-4: inconsistency means the
	// view is always empty.
	if err := r.computeEQ(); err != nil {
		return tailSets{}, err
	}
	if r.eq.inconsistent {
		return tailSets{empty: true}, nil
	}
	// Lines 7-10: apply the domain constraints. Line 11: Σc := RBR(ΣV,
	// attr(Es) − Y).
	g := r.reduce()
	truncated, err := runRBR(g, tv.drops, cfg)
	if err != nil {
		return tailSets{}, err
	}
	// Line 12: Σd := EQ2CFD(EQ) over the projected attributes, plus the
	// constant-relation CFDs for Rc (§4.2 "Basic results").
	sigmaD := r.eq2CFD()
	for _, c := range tv.view.Consts {
		sigmaD = append(sigmaD, cfd.NewConstant(tv.view.Name, c.Attr, c.Value))
	}
	return tailSets{sigmaC: r.cfds(g), sigmaD: sigmaD, truncated: truncated}, nil
}
