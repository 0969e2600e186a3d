package core

import (
	"context"
	"math/rand"
	"testing"

	"cfdprop/internal/algebra"
	"cfdprop/internal/cfd"
	"cfdprop/internal/gen"
	"cfdprop/internal/implication"
	"cfdprop/internal/propagation"
	"cfdprop/internal/rel"
)

// example11View rebuilds the Example 1.1 SPCU integration view.
func example11View() (*rel.DBSchema, *algebra.SPCU, []*cfd.CFD) {
	attrs := []string{"AC", "phn", "name", "street", "city", "zip"}
	db := rel.MustDBSchema(
		rel.InfiniteSchema("R1", attrs...),
		rel.InfiniteSchema("R2", attrs...),
		rel.InfiniteSchema("R3", attrs...),
	)
	mk := func(src, cc string) *algebra.SPC {
		return &algebra.SPC{
			Name:       "R",
			Consts:     []algebra.ConstAtom{{Attr: "CC", Value: cc}},
			Atoms:      []algebra.RelAtom{{Source: src, Attrs: attrs}},
			Projection: append(append([]string{}, attrs...), "CC"),
		}
	}
	view, err := algebra.NewSPCU("R", mk("R1", "44"), mk("R2", "01"), mk("R3", "31"))
	if err != nil {
		panic(err)
	}
	sigma := []*cfd.CFD{
		cfd.MustParse(`R1(zip -> street)`),
		cfd.MustParse(`R1(AC -> city)`),
		cfd.MustParse(`R3(AC -> city)`),
		cfd.MustParse(`R1([AC=20] -> [city=ldn])`),
		cfd.MustParse(`R3([AC=20] -> [city=Amsterdam])`),
	}
	return db, view, sigma
}

// TestUnionCoverExample11: the union cover must recover ϕ1-ϕ5 — the
// flagship claim of the paper's introduction.
func TestUnionCoverExample11(t *testing.T) {
	db, view, sigma := example11View()
	res, err := PropCFDSPCU(db, view, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`R([CC=44, zip] -> [street])`,           // ϕ1
		`R([CC=44, AC] -> [city])`,              // ϕ2
		`R([CC=31, AC] -> [city])`,              // ϕ3
		`R([CC=44, AC=20] -> [city=ldn])`,       // ϕ4
		`R([CC=31, AC=20] -> [city=Amsterdam])`, // ϕ5
	}
	for _, w := range want {
		ok, err := implication.Implies(implication.UniverseOf(res.ViewSchema), res.Cover, cfd.MustParse(w))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("union cover %v must imply %s", res.Cover, w)
		}
	}
	// The plain FDs must NOT be implied.
	for _, bad := range []string{`R(zip -> street)`, `R(AC -> city)`} {
		ok, err := implication.Implies(implication.UniverseOf(res.ViewSchema), res.Cover, cfd.MustParse(bad))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Errorf("union cover wrongly implies %s", bad)
		}
	}
}

// TestUnionCoverSound: every CFD in a union cover is certified by the
// decision procedure on random workloads.
func TestUnionCoverSound(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	trials := 10
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		db := gen.Schema(rng, gen.SchemaParams{NumRelations: 3, MinAttrs: 3, MaxAttrs: 4})
		sigma := gen.CFDs(rng, db, gen.CFDParams{Num: 5, LHSMin: 1, LHSMax: 2, VarPct: 60})
		d1 := gen.View(rng, db, "V", gen.ViewParams{Y: 3, F: 1, Ec: 1})
		// A union-compatible second disjunct over another relation: rename
		// its projection to d1's.
		d2 := gen.View(rng, db, "V", gen.ViewParams{Y: 3, F: 1, Ec: 1})
		d2 = renameProjection(d2, d1.Projection)
		view, err := algebra.NewSPCU("V", d1, d2)
		if err != nil {
			t.Fatal(err)
		}
		if err := view.Validate(db); err != nil {
			continue // renaming collision; skip this draw
		}
		res, err := PropCFDSPCU(db, view, sigma, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Cover {
			r, err := propagation.Check(db, view, sigma, c, propagation.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !r.Propagated {
				t.Errorf("trial %d: union cover member %s is not propagated", trial, c)
			}
		}
	}
}

// renameProjection rewrites d so its projection attribute names match
// target, renaming the underlying atom attributes consistently.
func renameProjection(d *algebra.SPC, target []string) *algebra.SPC {
	m := map[string]string{}
	for i, y := range d.Projection {
		m[y] = target[i]
	}
	ren := func(a string) string {
		if n, ok := m[a]; ok {
			return n
		}
		return "u_" + a
	}
	out := &algebra.SPC{Name: d.Name}
	for _, atom := range d.Atoms {
		attrs := make([]string, len(atom.Attrs))
		for i, a := range atom.Attrs {
			attrs[i] = ren(a)
		}
		out.Atoms = append(out.Atoms, algebra.RelAtom{Source: atom.Source, Attrs: attrs})
	}
	for _, e := range d.Selection {
		ne := algebra.EqAtom{Left: ren(e.Left), IsConst: e.IsConst, Right: e.Right}
		if !e.IsConst {
			ne.Right = ren(e.Right)
		}
		out.Selection = append(out.Selection, ne)
	}
	out.Projection = append([]string(nil), target...)
	return out
}

// TestUnionOfIdenticalDisjunctsMatchesSPC: the union of a disjunct with
// itself must not lose CFDs relative to the SPC cover.
func TestUnionOfIdenticalDisjunctsMatchesSPC(t *testing.T) {
	db := rel.MustDBSchema(rel.InfiniteSchema("S", "A", "B", "C"))
	q := &algebra.SPC{
		Name:       "V",
		Atoms:      []algebra.RelAtom{{Source: "S", Attrs: []string{"A", "B", "C"}}},
		Selection:  []algebra.EqAtom{{Left: "C", IsConst: true, Right: "9"}},
		Projection: []string{"A", "B", "C"},
	}
	sigma := []*cfd.CFD{cfd.MustParse(`S(A -> B)`)}
	spc, err := PropCFDSPC(db, q, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	u, err := algebra.NewSPCU("V", q, q)
	if err != nil {
		t.Fatal(err)
	}
	spcu, err := PropCFDSPCU(db, u, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range spc.Cover {
		ok, err := implication.Implies(implication.UniverseOf(spcu.ViewSchema), spcu.Cover, c)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("self-union lost %s", c)
		}
	}
}

// TestUnionMemoSharedAcrossCandidates: the candidate checks inside one
// PropCFDSPCU call share a memo, so the pair-emptiness work (and any
// repeated pair verdicts) replay instead of re-chasing; the counters must
// surface in the result and must not change the cover. A caller-supplied
// memo reused for a second identical call must replay every pair verdict.
func TestUnionMemoSharedAcrossCandidates(t *testing.T) {
	db, view, sigma := example11View()
	base, err := PropCFDSPCU(db, view, sigma, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if base.MemoMisses == 0 {
		t.Fatal("first call must record memo misses (pairs chased and stored)")
	}
	memo := propagation.NewMemo()
	withMemo := func() (*UnionResult, error) {
		cs, err := NewCoverSession(db, view, Options{Parallelism: 4})
		if err != nil {
			return nil, err
		}
		cs.SetMemo(memo)
		return cs.Cover(context.Background(), sigma)
	}
	cold, err := withMemo()
	if err != nil {
		t.Fatal(err)
	}
	// Hit/miss counters track pair verdicts only (each candidate has its
	// own φ, so a single call sees no pair hits); the cross-candidate win
	// inside one call is the disjunct-emptiness replay, visible in Stats.
	if st := memo.Stats(); st.Pairs == 0 || st.Disjuncts == 0 {
		t.Errorf("memo after a cold call: %+v, want pair and disjunct entries", st)
	}
	warm, err := withMemo()
	if err != nil {
		t.Fatal(err)
	}
	if warm.MemoMisses != 0 {
		t.Errorf("warm call over an identical workload: %d misses, want 0", warm.MemoMisses)
	}
	if warm.MemoHits == 0 {
		t.Error("warm call must replay from the shared memo")
	}
	for _, res := range []*UnionResult{cold, warm} {
		if len(res.Cover) != len(base.Cover) {
			t.Fatalf("memoised cover size %d != base %d", len(res.Cover), len(base.Cover))
		}
		for i := range res.Cover {
			if res.Cover[i].String() != base.Cover[i].String() {
				t.Errorf("cover[%d]: memoised %s != base %s", i, res.Cover[i], base.Cover[i])
			}
		}
	}
}
