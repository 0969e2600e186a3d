package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"cfdprop/internal/algebra"
	"cfdprop/internal/cfd"
	"cfdprop/internal/gen"
	"cfdprop/internal/implication"
	"cfdprop/internal/propagation"
	"cfdprop/internal/rel"
)

// TestResolventExample42 replays Example 4.2: the A-resolvent of
// φ1 = R([A1, A2] → A, (_, c ‖ a)) and φ2 = R([A, A2, B1] → B, (_, c, b ‖ _))
// is φ = R([A1, A2, B1] → B, (_, c, b ‖ _)).
func TestResolventExample42(t *testing.T) {
	phi1 := cfd.MustParse(`R([A1, A2=c] -> [A=a])`)
	phi2 := cfd.MustParse(`R([A, A2=c, B1=b] -> [B])`)
	r := resolvent(phi1, phi2, "A")
	if r == nil {
		t.Fatal("resolvent must be defined")
	}
	want := cfd.MustParse(`R([A1, A2=c, B1=b] -> [B])`)
	if r.Key() != want.Key() {
		t.Errorf("resolvent = %s, want %s", r, want)
	}
}

// resolventOf is the A-resolvent as gammaSet.eliminate computes it: nil
// unless A is on φ2's LHS with t1[A] ≤ t2[A], and resolvent otherwise.
func resolventOf(phi1, phi2 *cfd.CFD, a string) *cfd.CFD {
	t2A, onLHS := phi2.LHSItem(a)
	if !onLHS || !phi1.RHS[0].Pat.LE(t2A.Pat) {
		return nil
	}
	return resolvent(phi1, phi2, a)
}

func TestResolventUndefined(t *testing.T) {
	// t1[A] = 'a' but t2 requires A = 'b': a ≤ b fails.
	phi1 := cfd.MustParse(`R([W] -> [A=a])`)
	phi2 := cfd.MustParse(`R([A=b, Z] -> [B])`)
	if r := resolventOf(phi1, phi2, "A"); r != nil {
		t.Errorf("resolvent should be undefined, got %s", r)
	}
	// Shared attribute with incomparable constants: ⊕ undefined.
	phi3 := cfd.MustParse(`R([W=1] -> [A])`)
	phi4 := cfd.MustParse(`R([A, W=2] -> [B])`)
	if r := resolventOf(phi3, phi4, "A"); r != nil {
		t.Errorf("⊕ must be undefined on W: got %s", r)
	}
	// '_' ≤ 'b' fails: wildcard RHS cannot feed a constant LHS slot.
	phi5 := cfd.MustParse(`R([W] -> [A])`)
	phi6 := cfd.MustParse(`R([A=b] -> [B])`)
	if r := resolventOf(phi5, phi6, "A"); r != nil {
		t.Errorf("resolvent should be undefined ('_' not ≤ 'b'), got %s", r)
	}
}

func TestResolventSharedAttributeMin(t *testing.T) {
	// Shared W: min(1, _) = 1 must be taken.
	phi1 := cfd.MustParse(`R([W=1] -> [A])`)
	phi2 := cfd.MustParse(`R([A, W] -> [B])`)
	r := resolvent(phi1, phi2, "A")
	if r == nil {
		t.Fatal("resolvent must be defined")
	}
	want := cfd.MustParse(`R([W=1] -> [B])`)
	if r.Key() != want.Key() {
		t.Errorf("resolvent = %s, want %s", r, want)
	}
}

// example43 builds the sources and view of Example 4.3.
func example43() (*rel.DBSchema, *algebra.SPC, []*cfd.CFD) {
	db := rel.MustDBSchema(
		rel.InfiniteSchema("R1", "Bp1", "B2"),
		rel.InfiniteSchema("R2", "A1", "A2", "A"),
		rel.InfiniteSchema("R3", "Ap", "Ap2", "B1", "B"),
	)
	view := &algebra.SPC{
		Name: "V",
		Atoms: []algebra.RelAtom{
			{Source: "R1", Attrs: []string{"Bp1", "B2"}},
			{Source: "R2", Attrs: []string{"A1", "A2", "A"}},
			{Source: "R3", Attrs: []string{"Ap", "Ap2", "B1", "B"}},
		},
		Selection: []algebra.EqAtom{
			{Left: "B1", Right: "Bp1"},
			{Left: "A", Right: "Ap"},
			{Left: "A2", Right: "Ap2"},
		},
		Projection: []string{"B1", "B2", "Bp1", "A1", "A2", "B"},
	}
	sigma := []*cfd.CFD{
		cfd.MustParse(`R2([A1, A2=c] -> [A=a])`),      // ψ1
		cfd.MustParse(`R3([Ap, Ap2=c, B1=b] -> [B])`), // ψ2
	}
	return db, view, sigma
}

// TestExample43 checks the paper's worked cover: {φ, φ'} with
// φ = V([A1, A2, B1] → B, (_, c, b ‖ _)) and φ' = V(B1 == Bp1).
func TestExample43(t *testing.T) {
	db, view, sigma := example43()
	res, err := PropCFDSPC(db, view, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.AlwaysEmpty {
		t.Fatal("view must not be reported empty")
	}
	u := implication.UniverseOf(res.ViewSchema)
	phi := cfd.MustParse(`V([A1, A2=c, B1=b] -> [B])`)
	phiPrime := cfd.NewEquality("V", "B1", "Bp1")
	for _, want := range []*cfd.CFD{phi, phiPrime} {
		ok, err := implication.Implies(u, res.Cover, want)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("cover %v must imply %s", res.Cover, want)
		}
	}
	// And nothing beyond: the cover must not imply an unconditional FD.
	ok, err := implication.Implies(u, res.Cover, cfd.MustParse(`V([A1, A2, B1] -> [B])`))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("the unconditional FD must not be implied")
	}
}

// TestComputeEQ checks class formation, keys, representative choice.
func TestComputeEQ(t *testing.T) {
	view := &algebra.SPC{
		Name:  "V",
		Atoms: []algebra.RelAtom{{Source: "S", Attrs: []string{"A", "B", "C", "D"}}},
		Selection: []algebra.EqAtom{
			{Left: "A", Right: "B"},
			{Left: "B", IsConst: true, Right: "7"},
		},
		Projection: []string{"A", "C", "D"},
	}
	eq, err := ComputeEQ(view, nil)
	if err != nil {
		t.Fatal(err)
	}
	if eq.Inconsistent {
		t.Fatal("unexpected inconsistency")
	}
	if eq.find("A") != eq.find("B") {
		t.Error("A and B must be one class")
	}
	if k, ok := eq.Key("A"); !ok || k != "7" {
		t.Errorf("key(A) = %q, %v; want 7", k, ok)
	}
	rep := eq.Rep([]string{"A", "B", "C", "D"}, map[string]bool{"A": true, "C": true, "D": true})
	if rep["B"] != "A" {
		t.Errorf("rep(B) = %q, want the projected member A", rep["B"])
	}
}

// TestComputeEQInconsistent replays Example 3.1: a selection constant
// conflicting with a source constant CFD makes the view always empty.
func TestComputeEQInconsistent(t *testing.T) {
	db := rel.MustDBSchema(rel.InfiniteSchema("S", "A", "B", "C"))
	view := &algebra.SPC{
		Name:       "V",
		Atoms:      []algebra.RelAtom{{Source: "S", Attrs: []string{"A", "B", "C"}}},
		Selection:  []algebra.EqAtom{{Left: "B", IsConst: true, Right: "b2"}},
		Projection: []string{"A", "B", "C"},
	}
	sigma := []*cfd.CFD{cfd.MustParse(`S([A] -> [B=b1])`)}
	res, err := PropCFDSPC(db, view, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AlwaysEmpty {
		t.Fatal("view must be reported always empty (Example 3.1)")
	}
	if len(res.Cover) != 2 {
		t.Fatalf("want the Lemma 4.5 pair, got %v", res.Cover)
	}
	// The pair implies arbitrary view CFDs.
	ok, err := res.IsPropagated(cfd.MustParse(`V(A -> C)`))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("on an always-empty view every CFD is propagated")
	}
}

// TestEQKeyPropagationThroughCFDs: a selection constant triggers a source
// CFD whose RHS constant keys another class (ComputeEQ closure rule).
func TestEQKeyPropagationThroughCFDs(t *testing.T) {
	db := rel.MustDBSchema(rel.InfiniteSchema("S", "A", "B", "C"))
	view := &algebra.SPC{
		Name:       "V",
		Atoms:      []algebra.RelAtom{{Source: "S", Attrs: []string{"A", "B", "C"}}},
		Selection:  []algebra.EqAtom{{Left: "A", IsConst: true, Right: "20"}},
		Projection: []string{"B", "C"},
	}
	sigma := []*cfd.CFD{cfd.MustParse(`S([A=20] -> [B=ldn])`)}
	res, err := PropCFDSPC(db, view, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := res.IsPropagated(cfd.MustParse(`V([] -> [B=ldn])`))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("cover %v must imply that column B is constant ldn", res.Cover)
	}
}

// TestApplyEQ covers the rewriting rules.
func TestApplyEQ(t *testing.T) {
	view := &algebra.SPC{
		Name:  "V",
		Atoms: []algebra.RelAtom{{Source: "S", Attrs: []string{"A", "B", "C", "D"}}},
		Selection: []algebra.EqAtom{
			{Left: "A", Right: "B"},
			{Left: "C", IsConst: true, Right: "5"},
		},
		Projection: []string{"A", "B", "C", "D"},
	}
	eq, err := ComputeEQ(view, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := eq.Rep(view.EsAttrs(), map[string]bool{"A": true, "B": true, "C": true, "D": true})

	// B is replaced by rep A; duplicates merge.
	c := cfd.MustParse(`V([A, B] -> [D])`)
	got := ApplyEQ(c, eq, rep)
	if got == nil || len(got.LHS) != 1 || got.LHS[0].Attr != "A" {
		t.Errorf("ApplyEQ(%s) = %v, want single-attribute LHS A", c, got)
	}
	// Keyed attribute C is discharged from the LHS.
	c = cfd.MustParse(`V([C=5, D] -> [A])`)
	got = ApplyEQ(c, eq, rep)
	if got == nil || len(got.LHS) != 1 || got.LHS[0].Attr != "D" {
		t.Errorf("ApplyEQ(%s) = %v, want LHS {D}", c, got)
	}
	// Conflicting LHS constant makes the CFD inert.
	c = cfd.MustParse(`V([C=6, D] -> [A])`)
	if got = ApplyEQ(c, eq, rep); got != nil {
		t.Errorf("ApplyEQ(%s) = %v, want nil (inert)", c, got)
	}
	// RHS equal to the key is subsumed by Σd.
	c = cfd.MustParse(`V([D] -> [C=5])`)
	if got = ApplyEQ(c, eq, rep); got != nil {
		t.Errorf("ApplyEQ(%s) = %v, want nil (subsumed)", c, got)
	}
	// Merged duplicate LHS with conflicting constants: inert.
	c = cfd.MustParse(`V([A=1, B=2] -> [D])`)
	if got = ApplyEQ(c, eq, rep); got != nil {
		t.Errorf("ApplyEQ(%s) = %v, want nil (conflicting duplicates)", c, got)
	}
}

// applyEQMap is ApplyEQ with the LHS entries merged through a per-call
// map, the reference ApplyEQ is compared with.
func applyEQMap(c *cfd.CFD, e *EQ, rep map[string]string) *cfd.CFD {
	if c.Equality {
		a, b := rep[c.LHS[0].Attr], rep[c.RHS[0].Attr]
		if a == b {
			return nil // captured by EQ, regenerated by EQ2CFD as needed
		}
		return cfd.NewEquality(c.Relation, a, b)
	}
	// Merge LHS entries under the representative mapping.
	merged := map[string]cfd.Pattern{}
	var order []string
	for _, it := range c.LHS {
		a := rep[it.Attr]
		p, seen := merged[a]
		if !seen {
			merged[a] = it.Pat
			order = append(order, a)
			continue
		}
		// Conjunction of two patterns on one attribute.
		switch {
		case p.Wildcard:
			merged[a] = it.Pat
		case it.Pat.Wildcard:
			// keep p
		case p.Const != it.Pat.Const:
			return nil // premise requires two distinct constants: inert
		}
	}
	// Discharge keyed entries.
	var lhs []cfd.Item
	for _, a := range order {
		p := merged[a]
		if k, ok := e.Key(a); ok {
			if !p.Wildcard && p.Const != k {
				return nil // premise contradicts the forced column constant
			}
			continue // condition always holds: drop the entry
		}
		lhs = append(lhs, cfd.Item{Attr: a, Pat: p})
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
	out := &cfd.CFD{Relation: c.Relation, LHS: lhs, RHS: []cfd.Item{{Attr: ra, Pat: r.Pat}}}
	if out.IsTrivial() {
		return nil
	}
	return out
}

// TestApplyEQMatchesMap requires ApplyEQ to give applyEQMap's answer (nil,
// or the same CFD text) on every CFD that reduceByEQ rewrites: those of
// the Fig. 8 |Ec| 8–10 grid cells behind line 1, and of 200 dense specs
// with line 1 skipped, whose selections make classes merge LHS entries.
func TestApplyEQMatchesMap(t *testing.T) {
	type spec struct {
		name  string
		db    *rel.DBSchema
		view  *algebra.SPC
		sigma []*cfd.CFD
		line1 bool
	}
	var specs []spec
	for ec := 8; ec <= 10; ec++ {
		name, db, view, sigma := fig8Cell(ec)
		specs = append(specs, spec{name, db, view, sigma, true})
	}
	rng := rand.New(rand.NewSource(65))
	for s := 0; s < 200; s++ {
		db, view, sigma := denseSpec(rng)
		specs = append(specs, spec{fmt.Sprintf("dense %d", s), db, view, sigma, false})
	}
	var rewrites, inert, merged int
	for _, sp := range specs {
		sigma := cfd.NormalizeAll(sp.sigma)
		if sp.line1 {
			var err error
			if sigma, err = minCoverPerRelation(context.Background(), sp.db, sigma, 1); err != nil {
				t.Fatal(err)
			}
		}
		sigmaV, err := renameToView(sp.db, sp.view, sigma)
		if err != nil {
			t.Fatal(err)
		}
		eq, err := ComputeEQ(sp.view, sigmaV)
		if err != nil {
			t.Fatal(err)
		}
		if eq.Inconsistent {
			continue
		}
		// The representatives reduceByEQ rewrites under.
		projected := make(map[string]bool, len(sp.view.Projection))
		for _, y := range sp.view.Projection {
			projected[y] = true
		}
		rep := eq.Rep(sp.view.EsAttrs(), projected)
		for _, c := range sigmaV {
			got, want := ApplyEQ(c, eq, rep), applyEQMap(c, eq, rep)
			rewrites++
			switch {
			case got == nil && want == nil:
				inert++
			case got == nil || want == nil:
				t.Fatalf("%s: ApplyEQ(%s) = %v, map version %v", sp.name, c, got, want)
			case got.String() != want.String():
				t.Fatalf("%s: ApplyEQ(%s) = %s, map version %s", sp.name, c, got, want)
			}
			if !c.Equality {
				reps := make(map[string]bool, len(c.LHS))
				for _, it := range c.LHS {
					reps[rep[it.Attr]] = true
				}
				if len(reps) < len(c.LHS) {
					merged++
				}
			}
		}
	}
	t.Logf("%d rewrites: %d nil, %d with LHS entries merged under the classes", rewrites, inert, merged)
	if inert == 0 || merged == 0 {
		t.Error("no rewrite was nil or merged LHS entries; the comparison misses a path")
	}
}

// TestProjectionDropFD: projecting away the RHS of an FD loses it; keeping
// a transitive image preserves it (basic RBR behaviour).
func TestProjectionDropFD(t *testing.T) {
	db := rel.MustDBSchema(rel.InfiniteSchema("S", "A", "B", "C"))
	mk := func(y ...string) *algebra.SPC {
		return &algebra.SPC{
			Name:       "V",
			Atoms:      []algebra.RelAtom{{Source: "S", Attrs: []string{"A", "B", "C"}}},
			Projection: y,
		}
	}
	sigma := []*cfd.CFD{cfd.MustParse(`S(A -> B)`), cfd.MustParse(`S(B -> C)`)}

	res, err := PropCFDSPC(db, mk("A", "C"), sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := res.IsPropagated(cfd.MustParse(`V(A -> C)`))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("RBR must derive A -> C through the dropped B; cover %v", res.Cover)
	}

	res, err = PropCFDSPC(db, mk("B", "C"), sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ok, err = res.IsPropagated(cfd.MustParse(`V(B -> C)`))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("B -> C must survive the projection")
	}
	ok, err = res.IsPropagated(cfd.MustParse(`V(C -> B)`))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("C -> B must not appear")
	}
}

// TestCoverSoundAndCompleteRandom cross-validates PropCFDSPC against the
// propagation decision procedure on random small workloads: every CFD in
// the cover must be propagated (soundness), and every random candidate
// that the decision procedure accepts must be implied by the cover
// (completeness).
func TestCoverSoundAndCompleteRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trials := 25
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		db := gen.Schema(rng, gen.SchemaParams{NumRelations: 3, MinAttrs: 3, MaxAttrs: 4})
		sigma := gen.CFDs(rng, db, gen.CFDParams{Num: 5, LHSMin: 1, LHSMax: 2, VarPct: 60})
		// Small constants pool to force interactions.
		view := gen.View(rng, db, "V", gen.ViewParams{Y: 4, F: 2, Ec: 2})
		res, err := PropCFDSPC(db, view, sigma, Options{})
		if err != nil {
			t.Fatal(err)
		}
		vu := implication.UniverseOf(res.ViewSchema)
		spcu := algebra.Single(view)

		// Soundness: every cover CFD is propagated.
		for _, c := range res.Cover {
			r, err := propagation.Check(db, spcu, sigma, c, propagation.Options{})
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if !r.Propagated {
				t.Errorf("trial %d: cover CFD %s is not propagated (Σ=%v, V=%s)", trial, c, sigma, view)
			}
		}

		// Completeness: random candidates accepted by the decision
		// procedure must be implied by the cover.
		for k := 0; k < 12; k++ {
			cand := randomViewCFD(rng, view)
			if cand == nil {
				continue
			}
			r, err := propagation.Check(db, spcu, sigma, cand, propagation.Options{})
			if err != nil {
				t.Fatal(err)
			}
			implied, err := implication.Implies(vu, res.Cover, cand)
			if err != nil {
				t.Fatal(err)
			}
			if r.Propagated && !implied {
				t.Errorf("trial %d: %s is propagated but not implied by cover %v (Σ=%v, V=%s)",
					trial, cand, res.Cover, sigma, view)
			}
			if !r.Propagated && implied {
				t.Errorf("trial %d: %s is implied by cover %v but not propagated (Σ=%v, V=%s)",
					trial, cand, res.Cover, sigma, view)
			}
		}
	}
}

// randomViewCFD generates a candidate CFD over the view's projection.
func randomViewCFD(rng *rand.Rand, view *algebra.SPC) *cfd.CFD {
	y := view.Projection
	if len(y) < 2 {
		return nil
	}
	perm := rng.Perm(len(y))
	k := 1 + rng.Intn(2)
	if k >= len(y) {
		k = len(y) - 1
	}
	pat := func() cfd.Pattern {
		switch rng.Intn(4) {
		case 0:
			return cfd.Eq("1")
		case 1:
			return cfd.Eq("2")
		default:
			return cfd.Any()
		}
	}
	lhs := make([]cfd.Item, k)
	for i := 0; i < k; i++ {
		lhs[i] = cfd.Item{Attr: y[perm[i]], Pat: pat()}
	}
	c := &cfd.CFD{Relation: view.Name, LHS: lhs, RHS: []cfd.Item{{Attr: y[perm[k]], Pat: pat()}}}
	if c.IsTrivial() {
		return nil
	}
	return c
}

// TestCoverMinimality: no cover CFD is implied by the others, and no LHS
// attribute is redundant.
func TestCoverMinimality(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		db := gen.Schema(rng, gen.SchemaParams{NumRelations: 3, MinAttrs: 3, MaxAttrs: 4})
		sigma := gen.CFDs(rng, db, gen.CFDParams{Num: 5, LHSMin: 1, LHSMax: 2, VarPct: 50})
		view := gen.View(rng, db, "V", gen.ViewParams{Y: 4, F: 2, Ec: 2})
		res, err := PropCFDSPC(db, view, sigma, Options{})
		if err != nil {
			t.Fatal(err)
		}
		u := implication.UniverseOf(res.ViewSchema)
		for i, c := range res.Cover {
			rest := append(append([]*cfd.CFD{}, res.Cover[:i]...), res.Cover[i+1:]...)
			ok, err := implication.Implies(u, rest, c)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				t.Errorf("trial %d: cover CFD %s is redundant", trial, c)
			}
		}
	}
}

// TestRcConstants: the constant relation contributes constant CFDs.
func TestRcConstants(t *testing.T) {
	db := rel.MustDBSchema(rel.InfiniteSchema("S", "A", "B"))
	view := &algebra.SPC{
		Name:       "V",
		Consts:     []algebra.ConstAtom{{Attr: "CC", Value: "44"}},
		Atoms:      []algebra.RelAtom{{Source: "S", Attrs: []string{"A", "B"}}},
		Projection: []string{"CC", "A", "B"},
	}
	res, err := PropCFDSPC(db, view, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := res.IsPropagated(cfd.MustParse(`V([] -> [CC=44])`))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("cover %v must fix CC = 44", res.Cover)
	}
}

// TestEqualityCFDsInCover: unkeyed selection equivalences survive as
// equality CFDs when both sides are projected.
func TestEqualityCFDsInCover(t *testing.T) {
	db := rel.MustDBSchema(rel.InfiniteSchema("S", "A", "B", "C"))
	view := &algebra.SPC{
		Name:       "V",
		Atoms:      []algebra.RelAtom{{Source: "S", Attrs: []string{"A", "B", "C"}}},
		Selection:  []algebra.EqAtom{{Left: "A", Right: "B"}},
		Projection: []string{"A", "B", "C"},
	}
	res, err := PropCFDSPC(db, view, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range res.Cover {
		if c.Equality {
			found = true
		}
	}
	if !found {
		t.Errorf("cover %v must contain the A == B equality CFD", res.Cover)
	}
}

// TestFiniteDomainRejected: §4 assumes no finite domains.
func TestFiniteDomainRejected(t *testing.T) {
	db := rel.MustDBSchema(rel.MustSchema("S",
		rel.Attribute{Name: "A", Domain: rel.Bool()},
		rel.Attribute{Name: "B", Domain: rel.Infinite()},
	))
	view := &algebra.SPC{
		Name:       "V",
		Atoms:      []algebra.RelAtom{{Source: "S", Attrs: []string{"A", "B"}}},
		Projection: []string{"A", "B"},
	}
	if _, err := PropCFDSPC(db, view, nil, Options{}); err == nil {
		t.Error("finite-domain schema must be rejected")
	}
}
