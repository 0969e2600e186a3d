package gen

import (
	"math/rand"
	"testing"
)

func TestSchemaParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := Schema(rng, SchemaParams{NumRelations: 12, MinAttrs: 5, MaxAttrs: 8})
	rels := db.Relations()
	if len(rels) != 12 {
		t.Fatalf("want 12 relations, got %d", len(rels))
	}
	for _, s := range rels {
		if s.Arity() < 5 || s.Arity() > 8 {
			t.Errorf("%s arity %d outside [5,8]", s.Name, s.Arity())
		}
		if s.HasFiniteAttr() {
			t.Errorf("%s must be infinite-domain", s.Name)
		}
	}
}

func TestSchemaDeterministic(t *testing.T) {
	a := Schema(rand.New(rand.NewSource(7)), SchemaParams{})
	b := Schema(rand.New(rand.NewSource(7)), SchemaParams{})
	an, bn := a.Relations(), b.Relations()
	if len(an) != len(bn) {
		t.Fatal("nondeterministic relation count")
	}
	for i := range an {
		if an[i].String() != bn[i].String() {
			t.Errorf("relation %d differs: %s vs %s", i, an[i], bn[i])
		}
	}
}

func TestCFDsRespectParams(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := Schema(rng, SchemaParams{})
	sigma := CFDs(rng, db, CFDParams{Num: 300, LHSMin: 3, LHSMax: 9, VarPct: 40})
	if len(sigma) != 300 {
		t.Fatalf("want 300 CFDs, got %d", len(sigma))
	}
	wild, total := 0, 0
	for _, c := range sigma {
		if len(c.LHS) < 1 || len(c.LHS) > 9 {
			t.Errorf("%s: LHS size %d outside bounds", c, len(c.LHS))
		}
		if len(c.RHS) != 1 {
			t.Errorf("%s: not normal form", c)
		}
		if c.IsTrivial() {
			t.Errorf("%s: trivial CFD generated", c)
		}
		if db.Relation(c.Relation) == nil {
			t.Errorf("%s: unknown relation", c)
		}
		if err := c.Validate(db.Relation(c.Relation)); err != nil {
			t.Errorf("invalid CFD: %v", err)
		}
		for _, it := range c.LHS {
			total++
			if it.Pat.Wildcard {
				wild++
			}
		}
	}
	// var% should be roughly honored (loose bounds; the all-wildcard
	// repair shifts it slightly).
	pct := 100 * wild / total
	if pct < 25 || pct > 55 {
		t.Errorf("wildcard percentage %d far from requested 40", pct)
	}
}

func TestCFDsNeverUnconditionalConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := Schema(rng, SchemaParams{})
	sigma := CFDs(rng, db, CFDParams{Num: 500, LHSMin: 3, LHSMax: 9, VarPct: 90})
	for _, c := range sigma {
		if c.RHS[0].Pat.Wildcard {
			continue
		}
		allWild := true
		for _, it := range c.LHS {
			if !it.Pat.Wildcard {
				allWild = false
			}
		}
		if allWild {
			t.Fatalf("%s: unconditional constant CFD generated", c)
		}
	}
}

func TestViewRespectsParams(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	db := Schema(rng, SchemaParams{})
	v := View(rng, db, "V", ViewParams{Y: 25, F: 10, Ec: 4})
	if err := v.Validate(db); err != nil {
		t.Fatalf("generated view invalid: %v", err)
	}
	if len(v.Atoms) != 4 {
		t.Errorf("want 4 atoms, got %d", len(v.Atoms))
	}
	if len(v.Selection) != 10 {
		t.Errorf("want 10 selection atoms, got %d", len(v.Selection))
	}
	if len(v.Projection) != 25 {
		t.Errorf("want 25 projection attrs, got %d", len(v.Projection))
	}
}

func TestViewYCappedByAttrs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := Schema(rng, SchemaParams{NumRelations: 2, MinAttrs: 3, MaxAttrs: 3})
	v := View(rng, db, "V", ViewParams{Y: 100, F: 0, Ec: 2})
	if len(v.Projection) != 6 {
		t.Errorf("Y must cap at the total attribute count 6, got %d", len(v.Projection))
	}
}
