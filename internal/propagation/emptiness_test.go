package propagation

import (
	"testing"

	"cfdprop/internal/algebra"
	"cfdprop/internal/cfd"
	"cfdprop/internal/rel"
)

// The emptiness problem of §3.3 — is V(D) empty for every D |= Σ? — is
// decided through Check by Lemma 4.5: V is always empty under Σ iff
// Σ |=V V(A → A, (_ ‖ c0)) and Σ |=V V(A → A, (_ ‖ c1)) for distinct c0,
// c1 in dom(A). A non-empty view has a tuple, and no tuple holds both c0
// and c1 in A, so one of the two checks is refuted; its counterexample is
// a source database satisfying Σ whose view is non-empty. These tests pin
// that reduction on the cases the paper discusses, and verify each
// witness end to end.

// alwaysEmpty decides emptiness of view under Σ by Lemma 4.5 on the
// view's first attribute. It returns the refuted check's counterexample
// as the non-emptiness witness.
func alwaysEmpty(t *testing.T, db *rel.DBSchema, view *algebra.SPCU, sigma []*cfd.CFD, general bool) (bool, *rel.Database) {
	t.Helper()
	vs, err := view.ViewSchema(db)
	if err != nil {
		t.Fatal(err)
	}
	a := vs.Attrs[0]
	consts := []string{"c0", "c1"}
	if a.Domain.Finite {
		if len(a.Domain.Values) < 2 {
			t.Fatalf("Lemma 4.5 needs two constants in dom(%s)", a.Name)
		}
		consts = a.Domain.Values[:2]
	}
	for _, c := range consts {
		res, err := Check(db, view, sigma, cfd.NewConstant(view.Name, a.Name, c), Options{General: general, WantCounterexample: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Truncated || res.Stopped != StopNone {
			t.Fatalf("check for %s = %s did not complete: %+v", a.Name, c, res)
		}
		if !res.Propagated {
			if res.Counterexample == nil {
				t.Fatal("witness requested but missing")
			}
			return false, res.Counterexample
		}
	}
	return true, nil
}

// verifyWitness checks that a non-emptiness witness satisfies Σ and
// yields a non-empty view.
func verifyWitness(t *testing.T, view *algebra.SPCU, sigma []*cfd.CFD, witness *rel.Database) {
	t.Helper()
	ok, v, err := cfd.DatabaseSatisfies(witness, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("witness violates Σ: %v", v)
	}
	out, err := view.Eval(witness)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Error("witness view is empty")
	}
}

func emptinessSchema() *rel.DBSchema {
	return rel.MustDBSchema(rel.InfiniteSchema("S", "A", "B", "C"))
}

func selView(attr, val string) *algebra.SPCU {
	return algebra.Single(&algebra.SPC{
		Name:       "V",
		Atoms:      []algebra.RelAtom{{Source: "S", Attrs: []string{"A", "B", "C"}}},
		Selection:  []algebra.EqAtom{{Left: attr, IsConst: true, Right: val}},
		Projection: []string{"A", "B", "C"},
	})
}

// TestExample31 replays Example 3.1: Σ forces B = b1 everywhere, the view
// selects B = b2, so the view is always empty.
func TestExample31(t *testing.T) {
	db := emptinessSchema()
	sigma := []*cfd.CFD{cfd.MustParse(`S([A] -> [B=b1])`)}
	if empty, _ := alwaysEmpty(t, db, selView("B", "b2"), sigma, false); !empty {
		t.Error("view must be always empty (Example 3.1)")
	}

	// With the matching constant it is non-empty.
	empty, witness := alwaysEmpty(t, db, selView("B", "b1"), sigma, false)
	if empty {
		t.Fatal("view with matching constant must be non-empty")
	}
	verifyWitness(t, selView("B", "b1"), sigma, witness)
}

func TestEmptyWithoutCFDs(t *testing.T) {
	empty, witness := alwaysEmpty(t, emptinessSchema(), selView("B", "b2"), nil, false)
	if empty {
		t.Fatal("without Σ the selection alone cannot force emptiness")
	}
	verifyWitness(t, selView("B", "b2"), nil, witness)
}

func TestInconsistentSelectionIsEmpty(t *testing.T) {
	v := algebra.Single(&algebra.SPC{
		Name:  "V",
		Atoms: []algebra.RelAtom{{Source: "S", Attrs: []string{"A", "B", "C"}}},
		Selection: []algebra.EqAtom{
			{Left: "A", IsConst: true, Right: "1"},
			{Left: "A", IsConst: true, Right: "2"},
		},
		Projection: []string{"A"},
	})
	if empty, _ := alwaysEmpty(t, emptinessSchema(), v, nil, false); !empty {
		t.Error("contradictory selection must be empty")
	}
}

func TestUnionEmptyOnlyIfAllDisjunctsEmpty(t *testing.T) {
	sigma := []*cfd.CFD{cfd.MustParse(`S([A] -> [B=b1])`)}
	u, err := algebra.NewSPCU("V", selView("B", "b2").Disjuncts[0], selView("B", "b1").Disjuncts[0])
	if err != nil {
		t.Fatal(err)
	}
	empty, witness := alwaysEmpty(t, emptinessSchema(), u, sigma, false)
	if empty {
		t.Fatal("union with one live disjunct must be non-empty")
	}
	verifyWitness(t, u, sigma, witness)
}

// TestGeneralSettingEmptiness: emptiness that only finite-domain reasoning
// can see: dom(A) = {0,1}, Σ forbids both values via constant clashes.
func TestGeneralSettingEmptiness(t *testing.T) {
	db := rel.MustDBSchema(rel.MustSchema("S",
		rel.Attribute{Name: "A", Domain: rel.Bool()},
		rel.Attribute{Name: "B", Domain: rel.Infinite()},
	))
	v := algebra.Single(&algebra.SPC{
		Name:       "V",
		Atoms:      []algebra.RelAtom{{Source: "S", Attrs: []string{"A", "B"}}},
		Projection: []string{"A", "B"},
	})
	// Under A=0, B must be both x and y; same under A=1: no tuple exists.
	sigma := []*cfd.CFD{
		cfd.MustParse(`S([A=0] -> [B=x])`),
		cfd.MustParse(`S([A=0] -> [B=y])`),
		cfd.MustParse(`S([A=1] -> [B=x])`),
		cfd.MustParse(`S([A=1] -> [B=y])`),
	}
	if empty, _ := alwaysEmpty(t, db, v, sigma, true); !empty {
		t.Error("finite-domain case analysis must prove emptiness")
	}
	// Dropping one case re-opens the view.
	empty, witness := alwaysEmpty(t, db, v, sigma[:3], true)
	if empty {
		t.Fatal("A=1 leaves room for a tuple")
	}
	verifyWitness(t, v, sigma[:3], witness)
}
