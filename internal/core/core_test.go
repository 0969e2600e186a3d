package core

import (
	"fmt"
	"math/rand"
	"slices"
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
	r := resolventOf(t, phi1, phi2, "A")
	if r == nil {
		t.Fatal("resolvent must be defined")
	}
	want := cfd.MustParse(`R([A1, A2=c, B1=b] -> [B])`)
	if r.Key() != want.Key() {
		t.Errorf("resolvent = %s, want %s", r, want)
	}
}

// resolventOf is the A-resolvent as gammaSet.eliminate computes it, on φ1
// and φ2 compiled as Γ's two members over one atom R(attributes of φ1 and
// φ2): nil unless A is on φ2's LHS with t1[A] ≤ t2[A], and
// gammaSet.resolvent's result otherwise.
func resolventOf(t *testing.T, phi1, phi2 *cfd.CFD, a string) *cfd.CFD {
	t.Helper()
	var attrs []string
	for _, it := range slices.Concat(phi1.LHS, phi1.RHS, phi2.LHS, phi2.RHS) {
		if !slices.Contains(attrs, it.Attr) {
			attrs = append(attrs, it.Attr)
		}
	}
	db := rel.MustDBSchema(rel.InfiniteSchema("R", attrs...))
	view := &algebra.SPC{Name: "R", Atoms: []algebra.RelAtom{{Source: "R", Attrs: attrs}}, Projection: attrs}
	tv := compileTail(t, db, view)
	r, err := tv.compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	g := newGammaSet(tv, nil)
	for _, c := range []*cfd.CFD{phi1, phi2} {
		sc, _, err := r.compileCFD(tv.srcs[0], c, nil)
		if err != nil {
			t.Fatal(err)
		}
		g.insert(sc.lhs, sc.rhs)
	}
	pa := tv.pos[a]
	for _, it := range g.lhs(&g.members[1]) {
		if it.pos == pa && le(g.members[0].rhs.code, it.code) {
			if lhs, rhs, ok := g.resolvent(0, 1, pa, nil); ok {
				return r.viewCFD(lhs, rhs)
			}
		}
	}
	return nil
}

func TestResolventUndefined(t *testing.T) {
	// t1[A] = 'a' but t2 requires A = 'b': a ≤ b fails.
	phi1 := cfd.MustParse(`R([W] -> [A=a])`)
	phi2 := cfd.MustParse(`R([A=b, Z] -> [B])`)
	if r := resolventOf(t, phi1, phi2, "A"); r != nil {
		t.Errorf("resolvent should be undefined, got %s", r)
	}
	// Shared attribute with incomparable constants: ⊕ undefined.
	phi3 := cfd.MustParse(`R([W=1] -> [A])`)
	phi4 := cfd.MustParse(`R([A, W=2] -> [B])`)
	if r := resolventOf(t, phi3, phi4, "A"); r != nil {
		t.Errorf("⊕ must be undefined on W: got %s", r)
	}
	// '_' ≤ 'b' fails: wildcard RHS cannot feed a constant LHS slot.
	phi5 := cfd.MustParse(`R([W] -> [A])`)
	phi6 := cfd.MustParse(`R([A=b] -> [B])`)
	if r := resolventOf(t, phi5, phi6, "A"); r != nil {
		t.Errorf("resolvent should be undefined ('_' not ≤ 'b'), got %s", r)
	}
}

func TestResolventSharedAttributeMin(t *testing.T) {
	// Shared W: min(1, _) = 1 must be taken.
	phi1 := cfd.MustParse(`R([W=1] -> [A])`)
	phi2 := cfd.MustParse(`R([A, W] -> [B])`)
	r := resolventOf(t, phi1, phi2, "A")
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

// compiledEQ runs lines 5-6 and 2 on the compiled view.
func compiledEQ(t *testing.T, db *rel.DBSchema, view *algebra.SPC, sigma []*cfd.CFD) *tailRun {
	t.Helper()
	r, err := compileTail(t, db, view).compile(sigma)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.computeEQ(); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestComputeEQ checks class formation, keys, representative choice.
func TestComputeEQ(t *testing.T) {
	db := rel.MustDBSchema(rel.InfiniteSchema("S", "A", "B", "C", "D"))
	view := &algebra.SPC{
		Name:  "V",
		Atoms: []algebra.RelAtom{{Source: "S", Attrs: []string{"A", "B", "C", "D"}}},
		Selection: []algebra.EqAtom{
			{Left: "A", Right: "B"},
			{Left: "B", IsConst: true, Right: "7"},
		},
		Projection: []string{"A", "C", "D"},
	}
	r := compiledEQ(t, db, view, nil)
	pos := r.tv.pos
	if r.eq.inconsistent {
		t.Fatal("unexpected inconsistency")
	}
	if r.eq.find(pos["A"]) != r.eq.find(pos["B"]) {
		t.Error("A and B must be one class")
	}
	if k := r.eq.keyOf(pos["A"]); k < 0 || r.strs[k] != "7" {
		t.Errorf("key(A) has code %d; want 7", k)
	}
	if rep := r.rep[pos["B"]]; rep != pos["A"] {
		t.Errorf("rep(B) = %q, want the projected member A", r.tv.names[rep])
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
	db := rel.MustDBSchema(rel.InfiniteSchema("S", "A", "B", "C", "D"))
	view := &algebra.SPC{
		Name:  "V",
		Atoms: []algebra.RelAtom{{Source: "S", Attrs: []string{"A", "B", "C", "D"}}},
		Selection: []algebra.EqAtom{
			{Left: "A", Right: "B"},
			{Left: "C", IsConst: true, Right: "5"},
		},
		Projection: []string{"A", "B", "C", "D"},
	}
	r := compiledEQ(t, db, view, nil)
	// apply rewrites c, a CFD on S, along the view's one atom.
	apply := func(c *cfd.CFD) *cfd.CFD {
		sc, _, err := r.compileCFD(r.tv.srcs[0], c, nil)
		if err != nil {
			t.Fatal(err)
		}
		lhs, rhs, ok := r.applyEQ(&sc, 0, nil)
		if !ok {
			return nil
		}
		return r.viewCFD(lhs, rhs)
	}

	// B is replaced by rep A; duplicates merge.
	c := cfd.MustParse(`S([A, B] -> [D])`)
	got := apply(c)
	if got == nil || len(got.LHS) != 1 || got.LHS[0].Attr != "A" {
		t.Errorf("applyEQ(%s) = %v, want single-attribute LHS A", c, got)
	}
	// Keyed attribute C is discharged from the LHS.
	c = cfd.MustParse(`S([C=5, D] -> [A])`)
	got = apply(c)
	if got == nil || len(got.LHS) != 1 || got.LHS[0].Attr != "D" {
		t.Errorf("applyEQ(%s) = %v, want LHS {D}", c, got)
	}
	// Conflicting LHS constant makes the CFD inert.
	c = cfd.MustParse(`S([C=6, D] -> [A])`)
	if got = apply(c); got != nil {
		t.Errorf("applyEQ(%s) = %v, want nil (inert)", c, got)
	}
	// RHS equal to the key is subsumed by Σd.
	c = cfd.MustParse(`S([D] -> [C=5])`)
	if got = apply(c); got != nil {
		t.Errorf("applyEQ(%s) = %v, want nil (subsumed)", c, got)
	}
	// Merged duplicate LHS with conflicting constants: inert.
	c = cfd.MustParse(`S([A=1, B=2] -> [D])`)
	if got = apply(c); got != nil {
		t.Errorf("applyEQ(%s) = %v, want nil (conflicting duplicates)", c, got)
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

// TestApplyEQMatchesMap requires applyEQ to give applyEQMap's answer (nil,
// or the same CFD text) on every CFD that lines 7-10 rewrite, under the
// string reference's classes and representatives: those of the Fig. 8
// |Ec| 8–10 grid cells behind line 1, and of 200 dense specs with line 1
// skipped, whose selections make classes merge LHS entries. The compiled
// renamed CFDs, with the repeats cfd.Dedup drops skipped, must be
// renameToView's, in order, and every equality CFD
// must be captured by EQ.
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
		sigma := line1(t, sp.db, sp.sigma, !sp.line1)
		r := compiledEQ(t, sp.db, sp.view, sigma)
		sigmaV := renameToView(sp.db, sp.view, sigma)
		eq, err := ComputeEQ(sp.view, sigmaV)
		if err != nil {
			t.Fatal(err)
		}
		if r.eq.inconsistent != eq.Inconsistent {
			t.Fatalf("%s: inconsistent %t, reference %t", sp.name, r.eq.inconsistent, eq.Inconsistent)
		}
		if eq.Inconsistent {
			continue
		}
		// The representatives the reference rewrites under.
		projected := make(map[string]bool, len(sp.view.Projection))
		for _, y := range sp.view.Projection {
			projected[y] = true
		}
		rep := eq.Rep(esAttrs(sp.view), projected)
		k := 0
		seen := make(map[string]bool)
		for j, ri := range r.tv.atomRel {
			off := r.tv.off[j]
			for i := range r.src[ri] {
				c := &r.src[ri][i]
				if key := r.renamed(c, off).Key(); seen[key] {
					continue
				} else {
					seen[key] = true
				}
				if k >= len(sigmaV) || r.renamed(c, off).String() != sigmaV[k].String() {
					t.Fatalf("%s: renamed CFD %d is %s, renameToView's %v", sp.name, k, r.renamed(c, off), sigmaV[k:])
				}
				want := applyEQMap(sigmaV[k], eq, rep)
				k++
				rewrites++
				if c.equality {
					if want != nil {
						t.Fatalf("%s: equality CFD %s rewrites to %s", sp.name, sigmaV[k-1], want)
					}
					inert++
					continue
				}
				var got *cfd.CFD
				if lhs, rhs, ok := r.applyEQ(c, off, nil); ok {
					got = r.viewCFD(lhs, rhs)
				}
				switch {
				case got == nil && want == nil:
					inert++
				case got == nil || want == nil:
					t.Fatalf("%s: applyEQ(%s) = %v, map version %v", sp.name, sigmaV[k-1], got, want)
				case got.String() != want.String():
					t.Fatalf("%s: applyEQ(%s) = %s, map version %s", sp.name, sigmaV[k-1], got, want)
				}
				reps := make(map[string]bool, len(c.lhs))
				for _, it := range sigmaV[k-1].LHS {
					reps[rep[it.Attr]] = true
				}
				if len(reps) < len(c.lhs) {
					merged++
				}
			}
		}
		if k != len(sigmaV) {
			t.Fatalf("%s: %d renamed CFDs, renameToView %d", sp.name, k, len(sigmaV))
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
// attribute is redundant: for each cover CFD and each of its LHS items,
// the cover does not imply the CFD with that item removed (a removal that
// leaves a trivial CFD is skipped, and so are Lemma 4.5 pairs). The inputs
// are 10 small random workloads, the Fig. 8 grid cells (|Ec| 2–11) and
// 200 dense specs.
func TestCoverMinimality(t *testing.T) {
	type spec struct {
		db    *rel.DBSchema
		view  *algebra.SPC
		sigma []*cfd.CFD
	}
	sets := map[string][]spec{}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		db := gen.Schema(rng, gen.SchemaParams{NumRelations: 3, MinAttrs: 3, MaxAttrs: 4})
		sigma := gen.CFDs(rng, db, gen.CFDParams{Num: 5, LHSMin: 1, LHSMax: 2, VarPct: 50})
		view := gen.View(rng, db, "V", gen.ViewParams{Y: 4, F: 2, Ec: 2})
		sets["small"] = append(sets["small"], spec{db, view, sigma})
	}
	for ec := 2; ec <= 11; ec++ {
		_, db, view, sigma := fig8Cell(ec)
		sets["fig8"] = append(sets["fig8"], spec{db, view, sigma})
	}
	rng = rand.New(rand.NewSource(69))
	for s := 0; s < 200; s++ {
		db, view, sigma := denseSpec(rng)
		sets["dense"] = append(sets["dense"], spec{db, view, sigma})
	}
	for _, set := range []string{"small", "fig8", "dense"} {
		checks := 0
		for i, sp := range sets[set] {
			res, err := PropCFDSPC(sp.db, sp.view, sp.sigma, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.AlwaysEmpty {
				continue
			}
			u := implication.UniverseOf(res.ViewSchema)
			for k, c := range res.Cover {
				rest := append(append([]*cfd.CFD{}, res.Cover[:k]...), res.Cover[k+1:]...)
				ok, err := implication.Implies(u, rest, c)
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					t.Errorf("%s %d: cover CFD %s is redundant", set, i, c)
				}
			}
			sess := implication.NewSession(u)
			if err := sess.SetSigma(res.Cover); err != nil {
				t.Fatal(err)
			}
			for _, c := range res.Cover {
				if c.Equality {
					continue
				}
				for k := range c.LHS {
					reduced := &cfd.CFD{Relation: c.Relation, LHS: slices.Delete(slices.Clone(c.LHS), k, k+1), RHS: c.RHS}
					if reduced.IsTrivial() {
						continue
					}
					ok, err := sess.Implies(reduced)
					if err != nil {
						t.Fatal(err)
					}
					checks++
					if ok {
						t.Errorf("%s %d: cover CFD %s is not left-reduced: the cover implies %s", set, i, c, reduced)
					}
				}
			}
		}
		t.Logf("%s: %d left-reduction checks", set, checks)
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
