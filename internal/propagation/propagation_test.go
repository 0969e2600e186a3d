package propagation

import (
	"testing"

	"cfdprop/internal/algebra"
	"cfdprop/internal/cfd"
	"cfdprop/internal/rel"
)

// example11 builds the schema and SPCU view of Example 1.1: three customer
// sources R1 (UK), R2 (US), R3 (NL) integrated into R with a country code.
func example11() (*rel.DBSchema, *algebra.SPCU) {
	attrs := []string{"AC", "phn", "name", "street", "city", "zip"}
	db := rel.MustDBSchema(
		rel.InfiniteSchema("R1", attrs...),
		rel.InfiniteSchema("R2", attrs...),
		rel.InfiniteSchema("R3", attrs...),
	)
	mk := func(src, cc string) *algebra.SPC {
		re := make([]string, len(attrs))
		for i, a := range attrs {
			re[i] = src + "_" + a
		}
		proj := append(append([]string{}, re...), "CC")
		return &algebra.SPC{
			Name:       "R",
			Consts:     []algebra.ConstAtom{{Attr: "CC", Value: cc}},
			Atoms:      []algebra.RelAtom{{Source: src, Attrs: re}},
			Projection: proj,
		}
	}
	q1, q2, q3 := mk("R1", "44"), mk("R2", "01"), mk("R3", "31")
	// Union-compatible projection names: rename per-source attributes to
	// the common output names.
	for _, q := range []*algebra.SPC{q1, q2, q3} {
		src := q.Atoms[0].Source
		q.Atoms[0].Attrs = attrs // reuse the plain names; disjointness is per query
		for i, a := range attrs {
			_ = src
			q.Projection[i] = a
		}
	}
	view, err := algebra.NewSPCU("R", q1, q2, q3)
	if err != nil {
		panic(err)
	}
	return db, view
}

// sourceFDs are f1, f2, f3 of Example 1.1.
func sourceFDs() []*cfd.CFD {
	return []*cfd.CFD{
		cfd.MustParse(`R1(zip -> street)`), // f1
		cfd.MustParse(`R1(AC -> city)`),    // f2
		cfd.MustParse(`R3(AC -> city)`),    // f3
	}
}

func check(t *testing.T, db *rel.DBSchema, v *algebra.SPCU, sigma []*cfd.CFD, phi string, want bool) *Result {
	t.Helper()
	r, err := Check(db, v, sigma, cfd.MustParse(phi), Options{WantCounterexample: true})
	if err != nil {
		t.Fatalf("Check(%s): %v", phi, err)
	}
	if r.Propagated != want {
		t.Errorf("Σ |=V %s = %v, want %v", phi, r.Propagated, want)
	}
	return r
}

// verifyCounterexample replays a witness: the source must satisfy Σ and
// the evaluated view must violate φ.
func verifyCounterexample(t *testing.T, db *rel.Database, v *algebra.SPCU, sigma []*cfd.CFD, phi string) {
	t.Helper()
	if db == nil {
		t.Fatal("expected a counterexample database")
	}
	ok, viol, err := cfd.DatabaseSatisfies(db, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("counterexample does not satisfy Σ: %v", viol)
	}
	out, err := v.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	sat, err := cfd.Satisfies(out, cfd.MustParse(phi))
	if err != nil {
		t.Fatal(err)
	}
	if sat {
		t.Fatalf("counterexample view satisfies %s; not a witness", phi)
	}
}

// TestExample11Propagation is the paper's flagship example: the FDs f1-f3
// propagate to the CFDs ϕ1-ϕ3 (not to unconditional FDs), and ϕ6 is not
// propagated.
func TestExample11Propagation(t *testing.T) {
	db, view := example11()
	sigma := sourceFDs()

	// ϕ1: uk zip determines street.
	check(t, db, view, sigma, `R([CC=44, zip] -> [street])`, true)
	// ϕ2, ϕ3: conditional area-code-determines-city.
	check(t, db, view, sigma, `R([CC=44, AC] -> [city])`, true)
	check(t, db, view, sigma, `R([CC=31, AC] -> [city])`, true)
	// The unconditional FDs are NOT propagated.
	r := check(t, db, view, sigma, `R(zip -> street)`, false)
	verifyCounterexample(t, r.Counterexample, view, sigma, `R(zip -> street)`)
	r = check(t, db, view, sigma, `R(AC -> city)`, false)
	verifyCounterexample(t, r.Counterexample, view, sigma, `R(AC -> city)`)
	// ϕ with the US condition is not propagated either (no FD on R2).
	check(t, db, view, sigma, `R([CC=01, zip] -> [street])`, false)
	// ϕ6 of the applications section.
	check(t, db, view, sigma, `R([CC, AC, phn] -> [street])`, false)
}

// TestExample11WithSourceCFDs adds cfd1, cfd2 and checks ϕ4, ϕ5.
func TestExample11WithSourceCFDs(t *testing.T) {
	db, view := example11()
	sigma := append(sourceFDs(),
		cfd.MustParse(`R1([AC=20] -> [city=ldn])`),       // cfd1
		cfd.MustParse(`R3([AC=20] -> [city=Amsterdam])`), // cfd2
	)
	check(t, db, view, sigma, `R([CC=44, AC=20] -> [city=ldn])`, true)       // ϕ4
	check(t, db, view, sigma, `R([CC=31, AC=20] -> [city=Amsterdam])`, true) // ϕ5
	// Without the CC guard the two sources clash.
	r := check(t, db, view, sigma, `R([AC=20] -> [city=ldn])`, false)
	verifyCounterexample(t, r.Counterexample, view, sigma, `R([AC=20] -> [city=ldn])`)
	// Wrong constant under the right guard.
	check(t, db, view, sigma, `R([CC=44, AC=20] -> [city=Amsterdam])`, false)
	// The CC column values partition the view; CC itself is not constant.
	check(t, db, view, sigma, `R([AC] -> [CC])`, false)
}

// TestConstantColumnPropagation: constant-relation attributes propagate as
// constant CFDs.
func TestConstantColumnPropagation(t *testing.T) {
	db, view := example11()
	// On the single-disjunct view for the UK source, CC is constant 44.
	single := algebra.Single(view.Disjuncts[0])
	check(t, db, single, nil, `R([CC] -> [CC=44])`, true)
	check(t, db, single, nil, `R([] -> [CC=44])`, true)
	// On the union it is not.
	check(t, db, view, nil, `R([CC] -> [CC=44])`, false)
}

func TestSelectionPropagation(t *testing.T) {
	db := rel.MustDBSchema(rel.InfiniteSchema("S", "A", "B", "C"))
	q := &algebra.SPC{
		Name:       "V",
		Atoms:      []algebra.RelAtom{{Source: "S", Attrs: []string{"A", "B", "C"}}},
		Selection:  []algebra.EqAtom{{Left: "A", Right: "B"}, {Left: "C", IsConst: true, Right: "7"}},
		Projection: []string{"A", "B", "C"},
	}
	v := algebra.Single(q)
	// Selection A = B propagates as the special equality CFD.
	r, err := Check(db, v, nil, cfd.NewEquality("V", "A", "B"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Propagated {
		t.Error("A == B must be propagated from the selection condition")
	}
	// C = 7 propagates as a constant CFD.
	check(t, db, v, nil, `V([C] -> [C=7])`, true)
	// A = B as an equality CFD fails without the selection.
	q2 := &algebra.SPC{
		Name:       "V",
		Atoms:      []algebra.RelAtom{{Source: "S", Attrs: []string{"A", "B", "C"}}},
		Projection: []string{"A", "B", "C"},
	}
	r, err = Check(db, algebra.Single(q2), nil, cfd.NewEquality("V", "A", "B"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Propagated {
		t.Error("A == B must not be propagated without the selection")
	}
}

// TestProductMixing: FDs across a Cartesian product — an FD of one factor
// still holds on the product, and cross-factor FDs do not appear.
func TestProductMixing(t *testing.T) {
	db := rel.MustDBSchema(
		rel.InfiniteSchema("S", "A", "B"),
		rel.InfiniteSchema("T", "C", "D"),
	)
	q := &algebra.SPC{
		Name: "V",
		Atoms: []algebra.RelAtom{
			{Source: "S", Attrs: []string{"A", "B"}},
			{Source: "T", Attrs: []string{"C", "D"}},
		},
		Projection: []string{"A", "B", "C", "D"},
	}
	v := algebra.Single(q)
	sigma := []*cfd.CFD{cfd.MustParse(`S(A -> B)`)}
	check(t, db, v, sigma, `V(A -> B)`, true)
	check(t, db, v, sigma, `V(C -> D)`, false)
	check(t, db, v, sigma, `V(A -> C)`, false)
	// The product makes (A, C) a key for B.
	check(t, db, v, sigma, `V([A, C] -> [B])`, true)
}

// TestSelfJoin: the same source twice; each copy carries the FD.
func TestSelfJoin(t *testing.T) {
	db := rel.MustDBSchema(rel.InfiniteSchema("S", "A", "B"))
	q := &algebra.SPC{
		Name: "V",
		Atoms: []algebra.RelAtom{
			{Source: "S", Attrs: []string{"A1", "B1"}},
			{Source: "S", Attrs: []string{"A2", "B2"}},
		},
		Selection:  []algebra.EqAtom{{Left: "A1", Right: "A2"}},
		Projection: []string{"A1", "B1", "B2"},
	}
	v := algebra.Single(q)
	sigma := []*cfd.CFD{cfd.MustParse(`S(A -> B)`)}
	check(t, db, v, sigma, `V(A1 -> B1)`, true)
	check(t, db, v, sigma, `V(A1 -> B2)`, true) // A1 = A2 determines B2 too
	// The self-join equality even forces B1 = B2 per tuple.
	r, err := Check(db, v, sigma, cfd.NewEquality("V", "B1", "B2"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Propagated {
		t.Error("B1 == B2 must be propagated through the self-join on A")
	}
}

// TestGeneralSettingFiniteDomains reproduces the Theorem 3.2 phenomenon:
// with a two-valued domain, an FD can be propagated even though the
// infinite-domain chase cannot see it.
func TestGeneralSettingFiniteDomains(t *testing.T) {
	// S(K, F, B) with dom(F) = {0,1}; Σ = {(K,F) -> B, plus under F=0 and
	// F=1 the columns agree via constants}: simpler and sharper: Σ makes B
	// constant under each F value; then K -> B holds on the projection
	// πK,B only because F has two values... Use a selection-based variant:
	// V = σ applied over S where Σ = {[F=0] -> [B=x], [F=1] -> [B=x]}.
	// Then B is constant x regardless of F — but only by case analysis
	// over the finite domain.
	db := rel.MustDBSchema(rel.MustSchema("S",
		rel.Attribute{Name: "K", Domain: rel.Infinite()},
		rel.Attribute{Name: "F", Domain: rel.Bool()},
		rel.Attribute{Name: "B", Domain: rel.Infinite()},
	))
	q := &algebra.SPC{
		Name:       "V",
		Atoms:      []algebra.RelAtom{{Source: "S", Attrs: []string{"K", "F", "B"}}},
		Projection: []string{"K", "B"},
	}
	v := algebra.Single(q)
	sigma := []*cfd.CFD{
		cfd.MustParse(`S([F=0] -> [B=x])`),
		cfd.MustParse(`S([F=1] -> [B=x])`),
	}
	phi := cfd.MustParse(`V([K] -> [B=x])`)

	// The infinite-domain procedure refuses to run on finite schemas.
	if _, err := Check(db, v, sigma, phi, Options{}); err == nil {
		t.Fatal("expected ErrFiniteDomains")
	}
	r, err := Check(db, v, sigma, phi, Options{General: true})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Propagated {
		t.Error("finite-domain case analysis must propagate [K] -> [B=x]")
	}
	if r.Instantiations < 2 {
		t.Errorf("expected at least 2 instantiations, got %d", r.Instantiations)
	}
	// Negative control: with one of the two cases missing, a counterexample
	// exists (F can take the uncovered value).
	r, err = Check(db, v, sigma[:1], phi, Options{General: true, WantCounterexample: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Propagated {
		t.Error("dropping the F=1 case must break propagation")
	}
	verifyCounterexample(t, r.Counterexample, v, sigma[:1], `V([K] -> [B=x])`)
}

// TestUnionPairwise: a CFD can hold on each disjunct separately yet fail
// on the union (cross-disjunct pairs), which is why the checker tests all
// pairs.
func TestUnionPairwise(t *testing.T) {
	db := rel.MustDBSchema(
		rel.InfiniteSchema("S", "A", "B"),
		rel.InfiniteSchema("T", "A", "B"),
	)
	mk := func(src string) *algebra.SPC {
		return &algebra.SPC{
			Name:       "V",
			Atoms:      []algebra.RelAtom{{Source: src, Attrs: []string{"A", "B"}}},
			Projection: []string{"A", "B"},
		}
	}
	v, err := algebra.NewSPCU("V", mk("S"), mk("T"))
	if err != nil {
		t.Fatal(err)
	}
	sigma := []*cfd.CFD{cfd.MustParse(`S(A -> B)`), cfd.MustParse(`T(A -> B)`)}
	// Within each source A -> B holds, but S and T can disagree on shared
	// A values.
	r := check(t, db, v, sigma, `V(A -> B)`, false)
	verifyCounterexample(t, r.Counterexample, v, sigma, `V(A -> B)`)
}

// TestInconsistentDisjunctSkipped: a disjunct whose selection is
// self-contradictory contributes nothing.
func TestInconsistentDisjunctSkipped(t *testing.T) {
	db := rel.MustDBSchema(rel.InfiniteSchema("S", "A", "B"))
	good := &algebra.SPC{
		Name:       "V",
		Atoms:      []algebra.RelAtom{{Source: "S", Attrs: []string{"A", "B"}}},
		Projection: []string{"A", "B"},
	}
	bad := &algebra.SPC{
		Name:  "V",
		Atoms: []algebra.RelAtom{{Source: "S", Attrs: []string{"A", "B"}}},
		Selection: []algebra.EqAtom{
			{Left: "A", IsConst: true, Right: "1"},
			{Left: "A", IsConst: true, Right: "2"},
		},
		Projection: []string{"A", "B"},
	}
	v, err := algebra.NewSPCU("V", good, bad)
	if err != nil {
		t.Fatal(err)
	}
	sigma := []*cfd.CFD{cfd.MustParse(`S(A -> B)`)}
	check(t, db, v, sigma, `V(A -> B)`, true)
}

// TestEmptyViewPropagatesEverything: when Σ forces the view empty, every
// CFD is propagated (Example 3.1).
func TestEmptyViewPropagatesEverything(t *testing.T) {
	db := rel.MustDBSchema(rel.InfiniteSchema("S", "A", "B", "C"))
	q := &algebra.SPC{
		Name:       "V",
		Atoms:      []algebra.RelAtom{{Source: "S", Attrs: []string{"A", "B", "C"}}},
		Selection:  []algebra.EqAtom{{Left: "B", IsConst: true, Right: "b2"}},
		Projection: []string{"A", "B", "C"},
	}
	v := algebra.Single(q)
	sigma := []*cfd.CFD{cfd.MustParse(`S([A] -> [B=b1])`)} // forces B = b1 everywhere
	check(t, db, v, sigma, `V(A -> C)`, true)
	check(t, db, v, sigma, `V([C] -> [A=zzz])`, true)
	// Without the conflicting source CFD the same view CFD fails.
	check(t, db, v, nil, `V(A -> C)`, false)
}

// TestViewCFDValidation pins the error Check returns for each kind of
// invalid input, in the order Check validates: the view, φ's relation, φ
// against the view schema, then Σ. An unnamed union passes the view's
// validation and fails only when its schema is derived, after φ's
// relation is checked.
func TestViewCFDValidation(t *testing.T) {
	db, view := example11()
	edited := func(edit func(v *algebra.SPCU)) *algebra.SPCU {
		_, v := example11()
		edit(v)
		return v
	}
	unnamed := edited(func(v *algebra.SPCU) { v.Name = "" })
	zipStreet := cfd.MustParse(`R(zip -> street)`)
	cases := []struct {
		name  string
		view  *algebra.SPCU
		sigma []*cfd.CFD
		phi   *cfd.CFD
		want  string
	}{
		{"unknown source", edited(func(v *algebra.SPCU) { v.Disjuncts[1].Atoms[0].Source = "R9" }), nil, zipStreet,
			`algebra: union R disjunct 1: algebra: R: unknown source relation "R9"`},
		{"projections differ", edited(func(v *algebra.SPCU) {
			p := v.Disjuncts[2].Projection
			p[0], p[1] = p[1], p[0]
		}), nil, zipStreet,
			`algebra: union R: disjunct 2 projection "phn" at position 0, want "AC"`},
		{"invalid view and φ on another relation", edited(func(v *algebra.SPCU) {
			v.Disjuncts[0].Projection = append(v.Disjuncts[0].Projection, "nope")
		}), nil, cfd.MustParse(`X(zip -> street)`),
			`algebra: union R disjunct 0: algebra: R: projection references unknown attribute "nope"`},
		{"φ on another relation", view, nil, cfd.MustParse(`X(zip -> street)`),
			`propagation: X([zip] -> [street]) is on relation "X", view is "R"`},
		{"unnamed union and φ on another relation", unnamed, nil, zipStreet,
			`propagation: R([zip] -> [street]) is on relation "R", view is ""`},
		{"unnamed union", unnamed, nil, &cfd.CFD{LHS: zipStreet.LHS, RHS: zipStreet.RHS},
			`rel: schema name must be non-empty`},
		{"φ outside the view schema", view, nil, cfd.MustParse(`R(nope -> street)`),
			`cfd: R([nope] -> [street]): unknown attribute "nope"`},
		{"invalid Σ", view, []*cfd.CFD{cfd.MustParse(`R1(nope -> street)`)}, zipStreet,
			`cfd: R1([nope] -> [street]): unknown attribute "nope"`},
	}
	for _, c := range cases {
		_, err := Check(db, c.view, c.sigma, c.phi, Options{})
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: Check returned %v, want %q", c.name, err, c.want)
		}
	}
}
