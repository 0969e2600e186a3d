package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"cfdprop/internal/algebra"
	"cfdprop/internal/cfd"
	"cfdprop/internal/gen"
	"cfdprop/internal/rel"
)

// gridCell draws the i-th cell (0-9) of Fig. fig (5-8) of the §5 grid as
// perfbench's cover workload draws it at pool seed seed, and returns its
// name: |Σ| 200–2000, |Y| 5–50, |F| 1–10, |Ec| 2–11, var% alternating 40
// and 50 along each sweep, over 10 relations of 10–20 attributes with LHS
// 3–9, Σ drawn before the view.
func gridCell(seed int64, fig, i int) (string, *rel.DBSchema, *algebra.SPC, []*cfd.CFD) {
	x := map[int][4]int{
		5: {200 * (i + 1), 25, 10, 4},
		6: {2000, 5 * (i + 1), 10, 4},
		7: {2000, 25, i + 1, 4},
		8: {2000, 25, 10, i + 2},
	}[fig]
	pct := 40 + 10*(i%2)
	name := fmt.Sprintf("fig%d/|Sigma|=%d/Y=%d/F=%d/Ec=%d/var=%d", fig, x[0], x[1], x[2], x[3], pct)
	h := fnv.New32a()
	h.Write([]byte(name))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum32())*31))
	db := gen.Schema(rng, gen.SchemaParams{})
	sigma := gen.CFDs(rng, db, gen.CFDParams{Num: x[0], LHSMin: 3, LHSMax: 9, VarPct: pct})
	view := gen.View(rng, db, "V", gen.ViewParams{Y: x[1], F: x[2], Ec: x[3]})
	return name, db, view, sigma
}

// fig8Cell draws the Fig. 8 grid cell with |Ec| = ec at pool seed 1.
func fig8Cell(ec int) (string, *rel.DBSchema, *algebra.SPC, []*cfd.CFD) {
	return gridCell(1, 8, ec-2)
}

// compileTail compiles view for the tail; the view must validate.
func compileTail(t testing.TB, db *rel.DBSchema, view *algebra.SPC) *tailView {
	t.Helper()
	vs, err := view.ViewSchema(db)
	if err != nil {
		t.Fatal(err)
	}
	return newTailView(db, view, vs)
}

// line1 returns Fig. 2 line 1's output for Σ, every relation covered, or
// the normalized Σ when skip is set (as SkipPreMinCover passes it).
func line1(t testing.TB, db *rel.DBSchema, sigma []*cfd.CFD, skip bool) []*cfd.CFD {
	t.Helper()
	sigma = cfd.NormalizeAll(sigma)
	if skip {
		return sigma
	}
	covered, err := minCoverPerRelation(context.Background(), db, sigma, 1)
	if err != nil {
		t.Fatal(err)
	}
	return covered
}

// viewCFD decodes a compiled view CFD.
func (r *tailRun) viewCFD(lhs []item, rhs item) *cfd.CFD {
	c := &cfd.CFD{Relation: r.tv.view.Name, RHS: []cfd.Item{r.cfdItem(rhs)}}
	for _, it := range lhs {
		c.LHS = append(c.LHS, r.cfdItem(it))
	}
	return c
}

// renamed decodes source CFD c renamed along the atom at offset off.
func (r *tailRun) renamed(c *srcCFD, off int32) *cfd.CFD {
	lhs := make([]item, len(c.lhs))
	for k, it := range c.lhs {
		lhs[k] = item{it.pos + off, it.code}
	}
	out := r.viewCFD(lhs, item{c.rhs.pos + off, c.rhs.code})
	out.Equality = c.equality
	return out
}

// firstDiff reports the first index at which two CFD lists differ in
// text, or -1.
func firstDiff(got, want []*cfd.CFD) int {
	for i := range max(len(got), len(want)) {
		if i >= len(got) || i >= len(want) || got[i].String() != want[i].String() {
			return i
		}
	}
	return -1
}

// checkTail runs the compiled tail and the string reference on one input
// and requires the same Σc, Σd, Truncated and AlwaysEmpty, member by
// member and in order, and the same Result after line 13. It returns the
// compiled tail's sets.
func checkTail(t *testing.T, name string, db *rel.DBSchema, view *algebra.SPC, sigma []*cfd.CFD, cfg rbrConfig, opts Options) tailSets {
	t.Helper()
	tv := compileTail(t, db, view)
	got, err := tv.run(sigma, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := refTail(db, view, sigma, cfg)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if got.empty != want.empty || got.truncated != want.truncated {
		t.Fatalf("%s: empty %t truncated %t, reference %t %t", name, got.empty, got.truncated, want.empty, want.truncated)
	}
	for _, set := range []struct {
		name      string
		got, want []*cfd.CFD
	}{{"Σc", got.sigmaC, want.sigmaC}, {"Σd", got.sigmaD, want.sigmaD}} {
		if i := firstDiff(set.got, set.want); i >= 0 {
			t.Fatalf("%s: %s has %d CFDs, reference %d; they first differ at %d:\n got: %v\nwant: %v",
				name, set.name, len(set.got), len(set.want), i, set.got, set.want)
		}
	}
	gotRes, err := finishTail(tv, got, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := finishTail(tv, want, opts)
	if err != nil {
		t.Fatal(err)
	}
	if gotRes.AlwaysEmpty != wantRes.AlwaysEmpty || gotRes.Truncated != wantRes.Truncated || firstDiff(gotRes.Cover, wantRes.Cover) >= 0 {
		t.Fatalf("%s: cover %v, reference %v", name, gotRes.Cover, wantRes.Cover)
	}
	return got
}

// TestCompiledTailMatchesReference checks Fig. 2 lines 2-12 on positions
// and constant codes against the same lines on names and strings
// (refTail): the same Σc (RBR's output) and Σd, the same Truncated and
// AlwaysEmpty, member by member and in order, and the same cover after
// line 13. The inputs are the 40 grid specs as perfbench draws them at
// pool seed 1, behind line 1; 200 dense specs with line 1 skipped, under
// both drop orders and MaxCoverSize 0 and the deduplicated input size, so
// that some runs truncate; the 12 disjuncts of the serve-shaped union,
// where nothing is eliminated; and views whose F has A = B and A = 'c'
// atoms, one of them inconsistent (Lemma 4.5).
func TestCompiledTailMatchesReference(t *testing.T) {
	def := rbrConfig{}
	for fig := 5; fig <= 8; fig++ {
		for i := 0; i < 10; i++ {
			name, db, view, sigma := gridCell(1, fig, i)
			checkTail(t, name, db, view, line1(t, db, sigma, false), def, Options{})
		}
	}

	specs := 200
	if testing.Short() {
		specs = 50
	}
	rng := rand.New(rand.NewSource(66))
	runs, truncated := 0, 0
	for s := 0; s < specs; s++ {
		db, view, sigma := denseSpec(rng)
		sigma = line1(t, db, sigma, true)
		ref, err := refTail(db, view, sigma, def)
		if err != nil {
			t.Fatal(err)
		}
		size := 0 // Γ's size before RBR
		if !ref.empty {
			sigmaV := renameToView(db, view, sigma)
			eq, err := ComputeEQ(view, sigmaV)
			if err != nil {
				t.Fatal(err)
			}
			reduced, _ := reduceByEQ(view, eq, sigmaV)
			size = len(cfd.Dedup(reduced))
		}
		for _, order := range []dropOrder{dropFewestOccurrences, dropSequential} {
			for _, maxCover := range []int{0, size} {
				name := fmt.Sprintf("dense %d order %d maxCover %d", s, order, maxCover)
				if checkTail(t, name, db, view, sigma, rbrConfig{order: order, maxCover: maxCover}, Options{MaxCoverSize: maxCover}).truncated {
					truncated++
				}
				runs++
			}
		}
	}
	t.Logf("%d dense runs, %d truncated", runs, truncated)
	if truncated == 0 {
		t.Error("no dense run truncated")
	}

	db, view, sigma := serveUnion()
	for d, disjunct := range view.Disjuncts {
		tv := compileTail(t, db, disjunct)
		if len(tv.drops) != 0 {
			t.Fatalf("serve disjunct %d eliminates %d attributes", d, len(tv.drops))
		}
		checkTail(t, fmt.Sprintf("serve disjunct %d", d), db, disjunct, line1(t, db, sigma, false), def, Options{})
	}

	empty := 0
	for _, sel := range selectionCases() {
		for _, skip := range []bool{false, true} {
			name := fmt.Sprintf("%s skip line 1 %t", sel.name, skip)
			if checkTail(t, name, sel.db, sel.view, line1(t, sel.db, sel.sigma, skip), def, Options{}).empty {
				empty++
			}
		}
	}
	if empty == 0 {
		t.Error("no selection case was inconsistent")
	}
}

// serveUnion is the serve workload's union shape: relations R1..R12 over
// A1..A6, each embedded by its own disjunct tagged CC = 100+i and
// projecting every attribute, with a determining chain A1 -> ... -> A6 and
// two filler CFDs per relation.
func serveUnion() (*rel.DBSchema, *algebra.SPCU, []*cfd.CFD) {
	const k, n = 12, 6
	attrs := make([]string, n)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("A%d", i+1)
	}
	var schemas []*rel.Schema
	var sigma []*cfd.CFD
	ds := make([]*algebra.SPC, k)
	for r := 1; r <= k; r++ {
		name := fmt.Sprintf("R%d", r)
		schemas = append(schemas, rel.InfiniteSchema(name, attrs...))
		for i := 0; i+1 < n; i++ {
			sigma = append(sigma, cfd.MustParse(fmt.Sprintf("%s(%s -> %s)", name, attrs[i], attrs[i+1])))
		}
		sigma = append(sigma,
			cfd.MustParse(fmt.Sprintf("%s([%s, %s] -> [%s])", name, attrs[0], attrs[n-1], attrs[1])),
			cfd.MustParse(fmt.Sprintf("%s([%s, %s] -> [%s])", name, attrs[1], attrs[2], attrs[n-1])))
		ds[r-1] = &algebra.SPC{
			Name:       "V",
			Consts:     []algebra.ConstAtom{{Attr: "CC", Value: fmt.Sprint(100 + r)}},
			Atoms:      []algebra.RelAtom{{Source: name, Attrs: attrs}},
			Projection: append([]string{"CC"}, attrs...),
		}
	}
	view, err := algebra.NewSPCU("V", ds...)
	if err != nil {
		panic(err)
	}
	return rel.MustDBSchema(schemas...), view, sigma
}

type selectionCase struct {
	name  string
	db    *rel.DBSchema
	view  *algebra.SPC
	sigma []*cfd.CFD
}

// selectionCases are views whose F has A = B and A = 'c' atoms over one
// relation joined with itself, with Σ CFDs that key classes through them
// and an inconsistent one (Example 3.1 on two atoms).
func selectionCases() []selectionCase {
	db := rel.MustDBSchema(rel.InfiniteSchema("S", "A", "B", "C", "D"))
	atoms := []algebra.RelAtom{
		{Source: "S", Attrs: []string{"A1", "B1", "C1", "D1"}},
		{Source: "S", Attrs: []string{"A2", "B2", "C2", "D2"}},
	}
	mk := func(sel ...algebra.EqAtom) *algebra.SPC {
		return &algebra.SPC{Name: "V", Atoms: atoms, Selection: sel, Projection: []string{"A1", "C1", "D1", "B2", "D2"}}
	}
	eqA := func(l, r string) algebra.EqAtom { return algebra.EqAtom{Left: l, Right: r} }
	eqC := func(l, c string) algebra.EqAtom { return algebra.EqAtom{Left: l, IsConst: true, Right: c} }
	sigma := []*cfd.CFD{
		cfd.MustParse(`S([A=1] -> [B=2])`),
		cfd.MustParse(`S([B=2, C] -> [D])`),
		cfd.MustParse(`S(A -> C)`),
		cfd.MustParse(`S([C=x] -> [D=y])`),
		cfd.MustParse(`S([D, A] -> [B=3])`),
	}
	ex43db, ex43view, ex43sigma := example43()
	return []selectionCase{
		{"A1=A2, B1='2'", db, mk(eqA("A1", "A2"), eqC("B1", "2")), sigma},
		{"A1='1', C2=D1", db, mk(eqC("A1", "1"), eqA("C2", "D1")), sigma},
		{"B1=B2, C1='x', A2='1'", db, mk(eqA("B1", "B2"), eqC("C1", "x"), eqC("A2", "1")), sigma},
		{"A1='1', B1='3' (inconsistent)", db, mk(eqC("A1", "1"), eqC("B1", "3")), sigma},
		{"Example 4.3", ex43db, ex43view, ex43sigma},
	}
}

// TestGammaKeyMatchesKey requires Γ's hash-and-compare to keep exactly the
// members that cfd.Key keeps: the same script of inserts and removals runs
// on gammaSet and on refGammaSet, which keys members by cfd.Key, and the
// live members must agree in order after every step. The CFDs repeat with
// their LHS reordered, and their constants include '_' beside the
// wildcard and constants containing ',', '=' and '|'.
func TestGammaKeyMatchesKey(t *testing.T) {
	attrs := []string{"A", "B", "C", "D", "E"}
	consts := []string{"1", "_", ",", "=", "|", "a,b", "a=b", "x|y", "1|", "|1", ",_", "_,", "1=_"}
	db := rel.MustDBSchema(rel.InfiniteSchema("S", attrs...))
	view := &algebra.SPC{Name: "S", Atoms: []algebra.RelAtom{{Source: "S", Attrs: attrs}}, Projection: attrs}
	tv := compileTail(t, db, view)
	rng := rand.New(rand.NewSource(67))
	pat := func() cfd.Pattern {
		if rng.Intn(3) == 0 {
			return cfd.Any()
		}
		return cfd.Eq(consts[rng.Intn(len(consts))])
	}
	// kth returns the index of the k-th live member.
	kth := func(n int, live func(int) bool, k int) int {
		for i := 0; i < n; i++ {
			if live(i) {
				if k == 0 {
					return i
				}
				k--
			}
		}
		return -1
	}
	dups, removals := 0, 0
	for trial := 0; trial < 50; trial++ {
		r, err := tv.compile(nil)
		if err != nil {
			t.Fatal(err)
		}
		g, ref := newGammaSet(tv, nil), newRefGammaSet(nil)
		var pool []*cfd.CFD
		for step := 0; step < 200; step++ {
			if g.n > 0 && rng.Intn(4) == 0 {
				k := rng.Intn(g.n)
				g.remove(int32(kth(len(g.members), func(i int) bool { return g.members[i].live }, k)))
				ref.remove(kth(len(ref.members), func(i int) bool { return ref.members[i] != nil }, k))
				removals++
			}
			var c *cfd.CFD
			if len(pool) > 0 && rng.Intn(2) == 0 {
				// A copy of an earlier CFD, its LHS reordered.
				c = pool[rng.Intn(len(pool))].Clone()
				rng.Shuffle(len(c.LHS), func(i, j int) { c.LHS[i], c.LHS[j] = c.LHS[j], c.LHS[i] })
			} else {
				perm := rng.Perm(len(attrs))
				c = &cfd.CFD{Relation: "S", RHS: []cfd.Item{{Attr: attrs[perm[0]], Pat: pat()}}}
				for _, k := range perm[1 : 1+rng.Intn(4)] {
					c.LHS = append(c.LHS, cfd.Item{Attr: attrs[k], Pat: pat()})
				}
				pool = append(pool, c)
			}
			sc, _, err := r.compileCFD(tv.srcs[0], c, nil)
			if err != nil {
				t.Fatal(err)
			}
			before := ref.n
			g.insert(sc.lhs, sc.rhs)
			ref.insert(c)
			if ref.n == before {
				dups++
			}
			if i := firstDiff(r.cfds(g), ref.liveMembers()); i >= 0 {
				t.Fatalf("trial %d step %d: Γ %v, cfd.Key keeps %v", trial, step, r.cfds(g), ref.liveMembers())
			}
		}
	}
	t.Logf("%d inserts rejected as duplicates, %d removals", dups, removals)
	if dups == 0 || removals == 0 {
		t.Error("no insert was a duplicate, or nothing was removed")
	}
}

// liveMembers returns refGammaSet's live members in order.
func (g *refGammaSet) liveMembers() []*cfd.CFD {
	var out []*cfd.CFD
	for _, c := range g.members {
		if c != nil {
			out = append(out, c)
		}
	}
	return out
}

// BenchmarkCoverTail times Fig. 2 lines 2-13 serially (Parallelism 1) on
// the line-1 covers of the Fig. 8 |Ec| 8–10 grid cells, drawn as
// perfbench's cover workload draws them at pool seed 1.
func BenchmarkCoverTail(b *testing.B) {
	type input struct {
		tv    *tailView
		sigma []*cfd.CFD
	}
	var inputs []input
	for ec := 8; ec <= 10; ec++ {
		_, db, view, sigma := fig8Cell(ec)
		inputs = append(inputs, input{compileTail(b, db, view), line1(b, db, sigma, false)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range inputs {
			if _, err := propSPCTail(in.tv, in.sigma, Options{Parallelism: 1}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
