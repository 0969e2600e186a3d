package implication

import (
	"math/rand"
	"testing"

	"cfdprop/internal/cfd"
	"cfdprop/internal/rel"
)

func u(attrs ...string) Universe { return InfiniteUniverse("R", attrs...) }

func parse(t *testing.T, srcs ...string) []*cfd.CFD {
	t.Helper()
	out := make([]*cfd.CFD, len(srcs))
	for i, s := range srcs {
		out[i] = cfd.MustParse(s)
	}
	return out
}

func mustImplies(t *testing.T, uni Universe, sigma []*cfd.CFD, phi string, want bool) {
	t.Helper()
	got, err := Implies(uni, sigma, cfd.MustParse(phi))
	if err != nil {
		t.Fatalf("Implies(%s): %v", phi, err)
	}
	if got != want {
		t.Errorf("Implies(%v, %s) = %v, want %v", sigma, phi, got, want)
	}
}

func TestImpliesFDTransitivity(t *testing.T) {
	uni := u("A", "B", "C")
	sigma := parse(t, `R(A -> B)`, `R(B -> C)`)
	mustImplies(t, uni, sigma, `R(A -> C)`, true)
	mustImplies(t, uni, sigma, `R(C -> A)`, false)
	mustImplies(t, uni, sigma, `R(A -> B)`, true)
	mustImplies(t, uni, sigma, `R([A, C] -> [B])`, true) // augmentation
}

func TestImpliesReflexivity(t *testing.T) {
	uni := u("A", "B")
	mustImplies(t, uni, nil, `R([A, B] -> [A])`, true) // trivial
	mustImplies(t, uni, nil, `R(A -> B)`, false)
}

func TestImpliesCFDPatternBlocking(t *testing.T) {
	uni := u("A", "B", "C")
	// Transitivity blocked by a constant in the middle: A=a forces nothing
	// about B matching 'b'.
	sigma := parse(t, `R([A=a] -> [B])`, `R([B=b] -> [C])`)
	mustImplies(t, uni, sigma, `R([A=a] -> [C])`, false)

	// With the middle pattern forced by a constant RHS, it goes through.
	sigma2 := parse(t, `R([A=a] -> [B=b])`, `R([B=b] -> [C])`)
	mustImplies(t, uni, sigma2, `R([A=a] -> [C])`, true)
}

func TestImpliesPatternWeakening(t *testing.T) {
	uni := u("A", "B")
	sigma := parse(t, `R(A -> B)`)
	// An FD implies each of its conditional restrictions.
	mustImplies(t, uni, sigma, `R([A=a] -> [B])`, true)
	// But not conversely.
	sigma2 := parse(t, `R([A=a] -> [B])`)
	mustImplies(t, uni, sigma2, `R(A -> B)`, false)
}

func TestImpliesConstantColumn(t *testing.T) {
	uni := u("A", "B", "C")
	// Column B is constant b.
	sigma := parse(t, `R([B] -> [B=b])`)
	mustImplies(t, uni, sigma, `R([A] -> [B])`, true)    // B is constant, so anything determines it
	mustImplies(t, uni, sigma, `R([C] -> [B=b])`, true)  // with the right constant
	mustImplies(t, uni, sigma, `R([C] -> [B=c])`, false) // wrong constant
	mustImplies(t, uni, sigma, `R([] -> [B=b])`, true)   // empty-LHS form
	mustImplies(t, uni, sigma, `R([A] -> [C])`, false)   // unrelated
}

func TestImpliesVacuousOnInconsistentPremise(t *testing.T) {
	uni := u("A", "B", "C")
	// Column A is constant a; a premise demanding A=b is unsatisfiable, so
	// any CFD conditioned on A=b is vacuously implied.
	sigma := parse(t, `R([A] -> [A=a])`)
	mustImplies(t, uni, sigma, `R([A=b] -> [C])`, true)
	mustImplies(t, uni, sigma, `R([A=b, B] -> [C=zzz])`, true)
}

func TestImpliesEqualityCFD(t *testing.T) {
	uni := u("A", "B", "C")
	sigma := []*cfd.CFD{
		cfd.NewEquality("R", "A", "B"),
		cfd.NewEquality("R", "B", "C"),
	}
	ok, err := Implies(uni, sigma, cfd.NewEquality("R", "A", "C"))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("equality CFDs must chain transitively")
	}
	ok, err = Implies(uni, sigma[:1], cfd.NewEquality("R", "A", "C"))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("A == C must not follow from A == B alone")
	}
	// Equality CFDs make the two columns interchangeable in FDs.
	sigma2 := append(parse(t, `R(B -> C)`), cfd.NewEquality("R", "A", "B"))
	mustImplies(t, uni, sigma2, `R(A -> C)`, true)
}

func TestImpliesExample42(t *testing.T) {
	// The A-resolvent of Example 4.2, checked for implication soundness.
	uni := u("A1", "A2", "A", "B1", "B")
	phi1 := cfd.MustParse(`R([A1, A2=c] -> [A=a])`)
	phi2 := cfd.MustParse(`R([A, A2=c, B1=b] -> [B])`)
	got, err := Implies(uni, []*cfd.CFD{phi1, phi2}, cfd.MustParse(`R([A1, A2=c, B1=b] -> [B])`))
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("the A-resolvent of Example 4.2 must be implied by its parents")
	}
}

func TestImpliesGeneralFiniteDomain(t *testing.T) {
	// With bool domains, (A -> C) and (notA -> C)-style reasoning needs
	// case analysis: Σ = {([A=0] -> [C=c]), ([A=1] -> [C=c])} implies
	// ([B] -> [C=c]) only because dom(A) = {0,1}.
	uni := Universe{Relation: "R", Attrs: []rel.Attribute{
		{Name: "A", Domain: rel.Bool()},
		{Name: "B", Domain: rel.Infinite()},
		{Name: "C", Domain: rel.Infinite()},
	}}
	sigma := parse(t, `R([A=0] -> [C=c])`, `R([A=1] -> [C=c])`)
	phi := cfd.MustParse(`R([B] -> [C=c])`)

	// The infinite-domain test misses it (sound, incomplete here).
	ok, err := Implies(uni, sigma, phi)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("infinite-domain test should not derive the finite-domain-only implication")
	}
}

func TestMinCoverRemovesRedundant(t *testing.T) {
	uni := u("A", "B", "C")
	sigma := parse(t,
		`R(A -> B)`,
		`R(B -> C)`,
		`R(A -> C)`, // redundant by transitivity
	)
	mc, err := NewSession(uni).MinCover(sigma)
	if err != nil {
		t.Fatal(err)
	}
	if len(mc) != 2 {
		t.Fatalf("want 2 CFDs after removing the transitive one, got %d: %v", len(mc), mc)
	}
	eq, err := Equivalent(uni, mc, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("minimal cover must be equivalent to the input")
	}
}

func TestMinCoverLeftReduction(t *testing.T) {
	uni := u("A", "B", "C")
	sigma := parse(t,
		`R(A -> B)`,
		`R([A, C] -> [B])`, // C is extraneous
	)
	mc, err := NewSession(uni).MinCover(sigma)
	if err != nil {
		t.Fatal(err)
	}
	if len(mc) != 1 {
		t.Fatalf("want 1 CFD, got %d: %v", len(mc), mc)
	}
	if len(mc[0].LHS) != 1 || mc[0].LHS[0].Attr != "A" {
		t.Errorf("left reduction failed: %v", mc[0])
	}
}

func TestMinCoverDropsTrivial(t *testing.T) {
	uni := u("A", "B")
	sigma := parse(t, `R([A, B] -> [A])`, `R(A -> B)`)
	mc, err := NewSession(uni).MinCover(sigma)
	if err != nil {
		t.Fatal(err)
	}
	if len(mc) != 1 {
		t.Fatalf("want 1, got %d: %v", len(mc), mc)
	}
}

// Property test: MinCover output is always equivalent to its input, and no
// CFD in the output is implied by the others.
func TestMinCoverProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	attrs := []string{"A", "B", "C", "D"}
	uni := u(attrs...)
	consts := []string{"0", "1"}
	randomCFD := func() *cfd.CFD {
		perm := rng.Perm(len(attrs))
		k := 1 + rng.Intn(2)
		lhs := make([]cfd.Item, k)
		for i := 0; i < k; i++ {
			p := cfd.Any()
			if rng.Intn(2) == 0 {
				p = cfd.Eq(consts[rng.Intn(len(consts))])
			}
			lhs[i] = cfd.Item{Attr: attrs[perm[i]], Pat: p}
		}
		p := cfd.Any()
		if rng.Intn(3) == 0 {
			p = cfd.Eq(consts[rng.Intn(len(consts))])
		}
		return &cfd.CFD{Relation: "R", LHS: lhs, RHS: []cfd.Item{{Attr: attrs[perm[k]], Pat: p}}}
	}
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(6)
		sigma := make([]*cfd.CFD, n)
		for i := range sigma {
			sigma[i] = randomCFD()
		}
		mc, err := NewSession(uni).MinCover(sigma)
		if err != nil {
			t.Fatal(err)
		}
		eq, err := Equivalent(uni, mc, sigma)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Fatalf("trial %d: cover %v not equivalent to input %v", trial, mc, sigma)
		}
		for i := range mc {
			rest := append(append([]*cfd.CFD{}, mc[:i]...), mc[i+1:]...)
			ok, err := Implies(uni, rest, mc[i])
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				t.Fatalf("trial %d: %s is redundant in the cover", trial, mc[i])
			}
		}
	}
}

func TestImpliesRejectsForeignAttrs(t *testing.T) {
	uni := u("A", "B")
	if _, err := Implies(uni, nil, cfd.MustParse(`R([Z] -> [B])`)); err == nil {
		t.Error("attribute outside the universe must be rejected")
	}
	if _, err := Implies(uni, nil, cfd.MustParse(`S([A] -> [B])`)); err == nil {
		t.Error("wrong relation must be rejected")
	}
}
