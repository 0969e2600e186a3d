// Package gen implements the workload generators of the paper's
// experimental study (§5): a CFD generator parameterized by the number of
// CFDs, the maximum LHS size and the wildcard percentage var%, and an SPC
// view generator parameterized by |Y| (projection attributes), |F|
// (selection conjuncts) and |Ec| (relations in the Cartesian product).
// Constants are drawn from [1, 100000], as in the paper, so that domain
// constraints can interact. All randomness flows through a caller-supplied
// *rand.Rand, making every workload reproducible from its seed.
package gen

import (
	"fmt"
	"math/rand"

	"cfdprop/internal/algebra"
	"cfdprop/internal/cfd"
	"cfdprop/internal/rel"
)

// SchemaParams configures the synthetic source schema. The paper uses "at
// least 10 relations, each with 10 to 20 attributes".
type SchemaParams struct {
	NumRelations int // default 10
	MinAttrs     int // default 10
	MaxAttrs     int // default 20
}

func (p SchemaParams) withDefaults() SchemaParams {
	if p.NumRelations <= 0 {
		p.NumRelations = 10
	}
	if p.MinAttrs <= 0 {
		p.MinAttrs = 10
	}
	if p.MaxAttrs < p.MinAttrs {
		p.MaxAttrs = p.MinAttrs + 10
	}
	return p
}

// Schema generates a source database schema R1 … Rk with infinite-domain
// attributes named Ri_Aj.
func Schema(rng *rand.Rand, p SchemaParams) *rel.DBSchema {
	p = p.withDefaults()
	db := rel.MustDBSchema()
	for i := 1; i <= p.NumRelations; i++ {
		n := p.MinAttrs + rng.Intn(p.MaxAttrs-p.MinAttrs+1)
		attrs := make([]string, n)
		for j := range attrs {
			attrs[j] = fmt.Sprintf("R%d_A%d", i, j+1)
		}
		if err := db.Add(rel.InfiniteSchema(fmt.Sprintf("R%d", i), attrs...)); err != nil {
			panic(err) // names are unique by construction
		}
	}
	return db
}

// ConstMax is the upper bound of the constant pool [1, ConstMax], from §5.
const ConstMax = 100000

// randConst draws a constant from the paper's pool.
func randConst(rng *rand.Rand) string {
	return fmt.Sprintf("%d", 1+rng.Intn(ConstMax))
}

// CFDParams configures the CFD generator.
type CFDParams struct {
	// Num is the total number m of CFDs; they are spread uniformly over
	// the relations, so the per-relation average n is Num/|R|.
	Num int
	// LHSMin/LHSMax bound the number of LHS attributes per CFD; the paper
	// uses 3 to 9.
	LHSMin, LHSMax int
	// VarPct is var%: the percentage of pattern entries that are the
	// wildcard '_'; the rest are random constants.
	VarPct int
}

func (p CFDParams) withDefaults() CFDParams {
	if p.Num <= 0 {
		p.Num = 200
	}
	if p.LHSMin <= 0 {
		p.LHSMin = 3
	}
	if p.LHSMax < p.LHSMin {
		p.LHSMax = 9
	}
	if p.VarPct <= 0 {
		p.VarPct = 40
	}
	return p
}

// CFDs generates p.Num random source CFDs over the schema.
func CFDs(rng *rand.Rand, db *rel.DBSchema, p CFDParams) []*cfd.CFD {
	p = p.withDefaults()
	rels := db.Relations()
	out := make([]*cfd.CFD, 0, p.Num)
	pat := func() cfd.Pattern {
		if rng.Intn(100) < p.VarPct {
			return cfd.Any()
		}
		return cfd.Eq(randConst(rng))
	}
	for len(out) < p.Num {
		s := rels[rng.Intn(len(rels))]
		arity := s.Arity()
		k := p.LHSMin + rng.Intn(p.LHSMax-p.LHSMin+1)
		if k >= arity {
			k = arity - 1
		}
		perm := rng.Perm(arity)
		lhs := make([]cfd.Item, k)
		allWild := true
		for i := 0; i < k; i++ {
			lhs[i] = cfd.Item{Attr: s.Attrs[perm[i]].Name, Pat: pat()}
			if !lhs[i].Pat.Wildcard {
				allWild = false
			}
		}
		rhs := []cfd.Item{{Attr: s.Attrs[perm[k]].Name, Pat: pat()}}
		// Keep generated CFDs genuinely conditional: an all-wildcard LHS
		// with a constant RHS asserts "the column is constant", and two of
		// those colliding on an attribute make Σ globally inconsistent
		// (every instance of the relation becomes empty), which collapses
		// every cover to the Lemma 4.5 pair. Forcing one LHS constant
		// keeps the workload meaningful, as in the paper's experiments.
		if allWild && !rhs[0].Pat.Wildcard && k > 0 {
			lhs[rng.Intn(k)].Pat = cfd.Eq(randConst(rng))
		}
		c := &cfd.CFD{Relation: s.Name, LHS: lhs, RHS: rhs}
		if c.IsTrivial() {
			continue
		}
		out = append(out, c)
	}
	return out
}

// ViewParams configures the SPC view generator: the view is
// πY(σF(R1 × … × R|Ec|)).
type ViewParams struct {
	Y  int // number of projection attributes, §5 uses 5..50
	F  int // number of selection conjuncts, §5 uses 1..10
	Ec int // number of relation atoms, §5 uses 2..11
	// ConstSelPct is the percentage of selection conjuncts of the form
	// A = 'a' (the rest are A = B). Default 50.
	ConstSelPct int
}

func (p ViewParams) withDefaults() ViewParams {
	if p.Y <= 0 {
		p.Y = 25
	}
	if p.F < 0 {
		p.F = 0
	}
	if p.Ec <= 0 {
		p.Ec = 4
	}
	if p.ConstSelPct <= 0 {
		p.ConstSelPct = 50
	}
	return p
}

// View generates a random SPC view over the schema. Relation atoms are
// sampled with replacement; attributes are renamed x{atom}_{col} to keep
// the product's attribute space disjoint.
func View(rng *rand.Rand, db *rel.DBSchema, name string, p ViewParams) *algebra.SPC {
	p = p.withDefaults()
	rels := db.Relations()
	q := &algebra.SPC{Name: name}
	var all []string
	for a := 0; a < p.Ec; a++ {
		src := rels[rng.Intn(len(rels))]
		attrs := make([]string, src.Arity())
		for i := range attrs {
			attrs[i] = fmt.Sprintf("x%d_%d", a+1, i+1)
		}
		q.Atoms = append(q.Atoms, algebra.RelAtom{Source: src.Name, Attrs: attrs})
		all = append(all, attrs...)
	}
	for i := 0; i < p.F; i++ {
		left := all[rng.Intn(len(all))]
		if rng.Intn(100) < p.ConstSelPct {
			q.Selection = append(q.Selection, algebra.EqAtom{Left: left, IsConst: true, Right: randConst(rng)})
			continue
		}
		right := all[rng.Intn(len(all))]
		if right == left {
			i--
			continue
		}
		q.Selection = append(q.Selection, algebra.EqAtom{Left: left, Right: right})
	}
	y := p.Y
	if y > len(all) {
		y = len(all)
	}
	perm := rng.Perm(len(all))
	for i := 0; i < y; i++ {
		q.Projection = append(q.Projection, all[perm[i]])
	}
	return q
}
