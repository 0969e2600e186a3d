package implication

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"cfdprop/internal/cfd"
	"cfdprop/internal/chase"
	"cfdprop/internal/gen"
	"cfdprop/internal/rel"
	"cfdprop/internal/sym"
)

// This file keeps two earlier implication engines as differential oracles
// for the counter closure in session.go: the reference session
// (refSession: a sym.State chase of a fresh two-row template per call,
// rescanning all of Σ per fixpoint round) and the one-shot chase.Inst
// engine (implies), which chases a template over the attributes Σ and φ
// mention with the relational chase the §3 procedures use.

type refSession struct {
	u     Universe
	sigma []refCompiled
}

type refCompiled struct {
	c        *cfd.CFD
	lhs, rhs []int
}

func newRefSession(u Universe, sigma []*cfd.CFD) (*refSession, error) {
	u = u.indexed()
	s := &refSession{u: u}
	for _, c := range sigma {
		if c.Relation != u.Relation {
			continue
		}
		cc := refCompiled{c: c}
		for _, it := range c.LHS {
			i, ok := u.pos(it.Attr)
			if !ok {
				return nil, fmt.Errorf("implication: %s outside universe", c)
			}
			cc.lhs = append(cc.lhs, i)
		}
		for _, it := range c.RHS {
			i, ok := u.pos(it.Attr)
			if !ok {
				return nil, fmt.Errorf("implication: %s outside universe", c)
			}
			cc.rhs = append(cc.rhs, i)
		}
		s.sigma = append(s.sigma, cc)
	}
	return s, nil
}

// chase is the original version-counter fixpoint: every round rescans all
// of Σ against all row pairs until nothing changes.
func (s *refSession) chase(st *sym.State, rows [][]sym.Term) bool {
	for {
		before := st.Version()
		for _, cc := range s.sigma {
			if cc.c.Equality {
				for _, r := range rows {
					if st.Equate(r[cc.lhs[0]], r[cc.rhs[0]]) != nil {
						return false
					}
				}
				continue
			}
			for i := range rows {
				for j := i; j < len(rows); j++ {
					if !s.premiseHolds(st, cc, rows[i], rows[j]) {
						continue
					}
					for k, it := range cc.c.RHS {
						a, b := rows[i][cc.rhs[k]], rows[j][cc.rhs[k]]
						if st.Equate(a, b) != nil {
							return false
						}
						if !it.Pat.Wildcard {
							if st.Bind(a, it.Pat.Const) != nil {
								return false
							}
						}
					}
				}
			}
		}
		if st.Version() == before {
			return true
		}
	}
}

func (s *refSession) premiseHolds(st *sym.State, cc refCompiled, t1, t2 []sym.Term) bool {
	for k, it := range cc.c.LHS {
		a := st.Resolve(t1[cc.lhs[k]])
		b := st.Resolve(t2[cc.lhs[k]])
		if a.IsVar != b.IsVar {
			return false
		}
		if a.IsVar {
			if a.Var != b.Var || !it.Pat.Wildcard {
				return false
			}
		} else if a.Const != b.Const || !it.Pat.Matches(a.Const) {
			return false
		}
	}
	return true
}

func (s *refSession) template(n int, shared map[int]cfd.Pattern) (*sym.State, [][]sym.Term, error) {
	st := sym.NewState()
	rows := make([][]sym.Term, n)
	sharedVar := make(map[int]sym.Term, len(shared))
	for r := 0; r < n; r++ {
		row := make([]sym.Term, len(s.u.Attrs))
		for i, a := range s.u.Attrs {
			if pat, ok := shared[i]; ok {
				if !pat.Wildcard {
					if !a.Domain.Contains(pat.Const) {
						return nil, nil, fmt.Errorf("implication: constant %q outside domain of %s", pat.Const, a.Name)
					}
					row[i] = sym.Constant(pat.Const)
					continue
				}
				v, have := sharedVar[i]
				if !have {
					v = st.NewVar(a.Domain)
					sharedVar[i] = v
				}
				row[i] = v
				continue
			}
			row[i] = st.NewVar(a.Domain)
		}
		rows[r] = row
	}
	return st, rows, nil
}

func (s *refSession) implies(phi *cfd.CFD) (bool, error) {
	if phi.Equality {
		a, ok1 := s.u.pos(phi.LHS[0].Attr)
		b, ok2 := s.u.pos(phi.RHS[0].Attr)
		if !ok1 || !ok2 {
			return false, fmt.Errorf("implication: %s outside universe", phi)
		}
		if a == b {
			return true, nil
		}
		st, rows, err := s.template(1, nil)
		if err != nil {
			return false, err
		}
		if !s.chase(st, rows) {
			return true, nil
		}
		return st.SameTerm(rows[0][a], rows[0][b]), nil
	}
	shared := make(map[int]cfd.Pattern, len(phi.LHS))
	for _, it := range phi.LHS {
		p, ok := s.u.pos(it.Attr)
		if !ok {
			return false, fmt.Errorf("implication: %s outside universe", phi)
		}
		shared[p] = it.Pat
	}
	rhs := phi.RHS[0]
	ai, ok := s.u.pos(rhs.Attr)
	if !ok {
		return false, fmt.Errorf("implication: %s outside universe", phi)
	}
	st, rows, err := s.template(2, shared)
	if err != nil {
		return false, err
	}
	if !s.chase(st, rows) {
		return true, nil
	}
	a1 := st.Resolve(rows[0][ai])
	a2 := st.Resolve(rows[1][ai])
	if !st.SameTerm(a1, a2) {
		return false, nil
	}
	if rhs.Pat.Wildcard {
		return true, nil
	}
	return !a1.IsVar && a1.Const == rhs.Pat.Const, nil
}

// mentioned collects the attributes referenced by sigma and phi, keeping
// universe order. Restricting the chase template to these attributes is a
// pure optimization: untouched columns cannot influence the outcome.
func (u Universe) mentioned(sigma []*cfd.CFD, phi *cfd.CFD) []rel.Attribute {
	want := make([]bool, len(u.Attrs))
	mark := func(c *cfd.CFD) {
		for _, it := range c.LHS {
			if i, ok := u.pos(it.Attr); ok {
				want[i] = true
			}
		}
		for _, it := range c.RHS {
			if i, ok := u.pos(it.Attr); ok {
				want[i] = true
			}
		}
	}
	for _, c := range sigma {
		mark(c)
	}
	if phi != nil {
		mark(phi)
	}
	out := make([]rel.Attribute, 0, len(u.Attrs))
	for i, a := range u.Attrs {
		if want[i] {
			out = append(out, a)
		}
	}
	return out
}

// template holds the symbolic instance used by the implication chase.
type template struct {
	inst  *chase.Inst
	attrs []rel.Attribute
	cols  map[string]int
	rows  []*chase.Row
}

// newTemplate builds an n-row template over the mentioned attributes.
// shared maps attributes to a pattern: entries present with a constant are
// fixed to it in every row; entries present with a wildcard share one fresh
// variable across all rows; all other attributes get per-row fresh
// variables.
func (u Universe) newTemplate(n int, attrs []rel.Attribute, shared map[string]cfd.Pattern) (*template, error) {
	st := sym.NewState()
	ci := chase.NewInst(st)
	names := make([]string, len(attrs))
	cols := make(map[string]int, len(attrs))
	for i, a := range attrs {
		names[i] = a.Name
		cols[a.Name] = i
	}
	if err := ci.DeclareRelation(u.Relation, names); err != nil {
		return nil, err
	}
	sharedVar := make(map[string]sym.Term)
	t := &template{inst: ci, attrs: attrs, cols: cols}
	for r := 0; r < n; r++ {
		row := make([]sym.Term, len(attrs))
		for i, a := range attrs {
			if pat, ok := shared[a.Name]; ok {
				if !pat.Wildcard {
					if !a.Domain.Contains(pat.Const) {
						return nil, fmt.Errorf("implication: constant %q outside domain of %s", pat.Const, a.Name)
					}
					row[i] = sym.Constant(pat.Const)
					continue
				}
				v, have := sharedVar[a.Name]
				if !have {
					v = st.NewVar(a.Domain)
					sharedVar[a.Name] = v
				}
				row[i] = v
				continue
			}
			row[i] = st.NewVar(a.Domain)
		}
		cr, err := ci.AddRow(u.Relation, row)
		if err != nil {
			return nil, err
		}
		t.rows = append(t.rows, cr)
	}
	return t, nil
}

// filterSigma keeps normalized, applicable CFDs of the universe's relation.
func (u Universe) filterSigma(sigma []*cfd.CFD) ([]*cfd.CFD, error) {
	var out []*cfd.CFD
	for _, c := range sigma {
		if c.Relation != u.Relation {
			continue
		}
		if err := u.checkCFD(c); err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// implies is the one-shot chase.Inst engine: a fresh template per call
// over the attributes Σ and φ mention, chased by the general-purpose
// relational chase.
func implies(u Universe, sigma []*cfd.CFD, phi *cfd.CFD) (bool, error) {
	u = u.indexed()
	if err := u.checkCFD(phi); err != nil {
		return false, err
	}
	sigma, err := u.filterSigma(sigma)
	if err != nil {
		return false, err
	}
	sigma = cfd.NormalizeAll(sigma)
	for _, p := range phi.Normalize() {
		ok, err := impliesNormal(u, sigma, p)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

func impliesNormal(u Universe, sigma []*cfd.CFD, phi *cfd.CFD) (bool, error) {
	attrs := u.mentioned(sigma, phi)

	if phi.Equality {
		a, b := phi.LHS[0].Attr, phi.RHS[0].Attr
		if a == b {
			return true, nil
		}
		t, err := u.newTemplate(1, attrs, nil)
		if err != nil {
			return false, err
		}
		if err := t.inst.Run(sigma); err != nil {
			if isUndefined(err) {
				return true, nil // no tuple can exist at all
			}
			return false, err
		}
		return t.inst.St.SameTerm(t.rows[0].Cols[t.cols[a]], t.rows[0].Cols[t.cols[b]]), nil
	}

	shared := make(map[string]cfd.Pattern, len(phi.LHS))
	for _, it := range phi.LHS {
		shared[it.Attr] = it.Pat
	}
	t, err := u.newTemplate(2, attrs, shared)
	if err != nil {
		return false, err
	}
	rhs := phi.RHS[0]
	ai := t.cols[rhs.Attr]
	if err := t.inst.Run(sigma); err != nil {
		if isUndefined(err) {
			return true, nil // premise unsatisfiable: vacuously implied
		}
		return false, err
	}
	st := t.inst.St
	a1 := st.Resolve(t.rows[0].Cols[ai])
	a2 := st.Resolve(t.rows[1].Cols[ai])
	if !st.SameTerm(a1, a2) {
		return false, nil
	}
	if rhs.Pat.Wildcard {
		return true, nil
	}
	return !a1.IsVar && a1.Const == rhs.Pat.Const, nil
}

func isUndefined(err error) bool {
	_, ok := err.(chase.ErrUndefined)
	return ok
}

// diffWorkload builds one randomized (universe, Σ, φ-pool) triple. varPct
// sweeps the pattern mix from pure FDs through mixed CFDs to all-constant
// patterns; equality CFDs are injected to exercise the components.
func diffWorkload(seed int64, varPct int) (Universe, []*cfd.CFD, []*cfd.CFD) {
	rng := rand.New(rand.NewSource(seed))
	db := gen.Schema(rng, gen.SchemaParams{NumRelations: 1, MinAttrs: 8, MaxAttrs: 12})
	s := db.Relations()[0]
	sigma := gen.CFDs(rng, db, gen.CFDParams{Num: 24, LHSMin: 2, LHSMax: 5, VarPct: varPct})
	for i := 0; i < 2; i++ {
		if rng.Intn(2) == 0 {
			a := s.Attrs[rng.Intn(s.Arity())].Name
			b := s.Attrs[rng.Intn(s.Arity())].Name
			sigma = append(sigma, cfd.NewEquality(s.Name, a, b))
		}
	}
	phis := gen.CFDs(rng, db, gen.CFDParams{Num: 40, LHSMin: 1, LHSMax: 4, VarPct: varPct})
	for i := 0; i < 4; i++ {
		a := s.Attrs[rng.Intn(s.Arity())].Name
		b := s.Attrs[rng.Intn(s.Arity())].Name
		phis = append(phis, cfd.NewEquality(s.Name, a, b))
	}
	return UniverseOf(s), cfd.NormalizeAll(sigma), cfd.NormalizeAll(phis)
}

// TestWorklistMatchesReferenceChase proves the session's counter closure
// equivalent to the reference full-rescan chase on well over 1000
// randomized implication instances.
func TestWorklistMatchesReferenceChase(t *testing.T) {
	compared := 0
	for seed := int64(0); seed < 12; seed++ {
		for _, varPct := range []int{1, 50, 100} {
			u, sigma, phis := diffWorkload(seed*100+int64(varPct), varPct)
			ref, err := newRefSession(u, sigma)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := newSession(u, sigma)
			if err != nil {
				t.Fatal(err)
			}
			for _, phi := range phis {
				want, err := ref.implies(phi)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sess.implies(phi)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("seed %d var%%=%d: session says %v, reference says %v for %s under %v",
						seed, varPct, got, want, phi, sigma)
				}
				// The chase.Inst engine over the mentioned-attribute
				// template is the second oracle; the public one-shot
				// Implies runs on a session.
				got2, err := implies(u, sigma, phi)
				if err != nil {
					t.Fatal(err)
				}
				if got2 != want {
					t.Fatalf("seed %d var%%=%d: chase.Inst engine says %v, reference says %v for %s",
						seed, varPct, got2, want, phi)
				}
				got3, err := Implies(u, sigma, phi)
				if err != nil {
					t.Fatal(err)
				}
				if got3 != want {
					t.Fatalf("seed %d var%%=%d: public Implies says %v, reference says %v for %s",
						seed, varPct, got3, want, phi)
				}
				compared++
			}
		}
	}
	if compared < 1000 {
		t.Fatalf("only %d differential comparisons ran; want >= 1000", compared)
	}
}

// TestEqualitySeedEnablesConstantPattern is the regression case for a
// seeding bug of the earlier worklist chase: the equality CFD A == B
// propagates φ's template constant at A onto B during seeding, which is
// what enables [B=x] → [C=y].
func TestEqualitySeedEnablesConstantPattern(t *testing.T) {
	u := InfiniteUniverse("V", "A", "B", "C")
	sigma := []*cfd.CFD{
		cfd.NewEquality("V", "A", "B"),
		cfd.MustParse(`V([B=x] -> [C=y])`),
	}
	phi := cfd.MustParse(`V([A=x] -> [C=y])`)
	ref, err := newRefSession(u, sigma)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.implies(phi)
	if err != nil {
		t.Fatal(err)
	}
	if !want {
		t.Fatal("reference engine must derive the implication")
	}
	sess, err := newSession(u, sigma)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.implies(phi)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("session must match the reference: φ's constant did not reach B's component")
	}
}

// TestMinCoverMatchesReference checks, with the reference engine as the
// oracle, that the tombstone-based MinCover output is equivalent to its
// input Σ.
func TestMinCoverMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		for _, varPct := range []int{30, 100} {
			u, sigma, _ := diffWorkload(seed*7+int64(varPct), varPct)
			cover, err := MinCover(u, sigma)
			if err != nil {
				t.Fatal(err)
			}
			refCover, err := newRefSession(u, cover)
			if err != nil {
				t.Fatal(err)
			}
			refSigma, err := newRefSession(u, sigma)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range sigma {
				if c.IsTrivial() {
					continue
				}
				ok, err := refCover.implies(c)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("seed %d var%%=%d: cover %v does not imply original %s", seed, varPct, cover, c)
				}
			}
			for _, c := range cover {
				ok, err := refSigma.implies(c)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("seed %d var%%=%d: original Σ does not imply cover member %s", seed, varPct, c)
				}
			}
		}
	}
}

// coverString canonicalizes a cover for exact (order-sensitive) comparison.
func coverString(cover []*cfd.CFD) string {
	s := ""
	for _, c := range cover {
		s += c.String() + "\n"
	}
	return s
}

// TestParallelMinCoverMatchesSession requires the parallel MinCover to
// return byte-identical covers — same members, same order — as the serial
// Session.MinCover, across pattern mixes and worker counts.
func TestParallelMinCoverMatchesSession(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		for _, varPct := range []int{30, 100} {
			u, sigma, _ := diffWorkload(seed*13+int64(varPct), varPct)
			want, err := NewSession(u).MinCover(sigma)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				got, err := ParallelMinCover(context.Background(), u, sigma, workers)
				if err != nil {
					t.Fatal(err)
				}
				if coverString(got) != coverString(want) {
					t.Fatalf("seed %d var%%=%d workers=%d: parallel cover diverged\n got: %v\nwant: %v",
						seed, varPct, workers, got, want)
				}
			}
		}
	}
}

// leftReduceRestart is the left-reduction loop leftReduceOne replaced:
// drop the first removable LHS attribute, then rescan from position 0.
// implied decides each probe.
func leftReduceRestart(c *cfd.CFD, implied func(*cfd.CFD) (bool, error)) (*cfd.CFD, error) {
	if c.Equality {
		return c, nil
	}
	probe := &cfd.CFD{}
	changed := true
	for changed && len(c.LHS) > 0 {
		changed = false
		for j := range c.LHS {
			probe.Relation = c.Relation
			probe.LHS = append(probe.LHS[:0], c.LHS[:j]...)
			probe.LHS = append(probe.LHS, c.LHS[j+1:]...)
			probe.RHS = c.RHS
			if probe.IsTrivial() {
				continue
			}
			ok, err := implied(probe)
			if err != nil {
				return nil, err
			}
			if ok {
				c = probe.Clone()
				changed = true
				break
			}
		}
	}
	return c, nil
}

// poolWorkload builds Σ and a φ pool over eight attributes whose
// constants all come from {a, b, c}, so patterns collide often: Σ holds
// all-wildcard LHSs with constant RHSs and CFDs that can clash. When finite
// is set every third attribute has the finite domain {a, b, c}.
func poolWorkload(seed int64, finite bool) (Universe, []*cfd.CFD, []*cfd.CFD) {
	rng := rand.New(rand.NewSource(seed))
	attrs := make([]rel.Attribute, 8)
	for i := range attrs {
		attrs[i] = rel.Attribute{Name: fmt.Sprintf("A%d", i), Domain: rel.Infinite()}
		if finite && i%3 == 0 {
			attrs[i].Domain = rel.FiniteDomain("abc", "a", "b", "c")
		}
	}
	draw := func(num int) []*cfd.CFD {
		pat := func() cfd.Pattern {
			if rng.Intn(2) == 0 {
				return cfd.Any()
			}
			return cfd.Eq(string(rune('a' + rng.Intn(3))))
		}
		var out []*cfd.CFD
		for len(out) < num {
			perm := rng.Perm(len(attrs))
			lhs := make([]cfd.Item, 1+rng.Intn(4))
			for i := range lhs {
				lhs[i] = cfd.Item{Attr: attrs[perm[i]].Name, Pat: pat()}
			}
			out = append(out, &cfd.CFD{Relation: "F", LHS: lhs,
				RHS: []cfd.Item{{Attr: attrs[perm[len(lhs)]].Name, Pat: pat()}}})
		}
		return out
	}
	return NewUniverse("F", attrs), draw(24), draw(40)
}

// probeWorkload is one (universe, Σ, extra candidates) input of the
// left-reduction and probe oracles.
type probeWorkload struct {
	name  string
	u     Universe
	sigma []*cfd.CFD
	extra []*cfd.CFD
}

// probeWorkloads lists the differential workloads (which include equality
// CFDs), small-constant-pool workloads with and without finite domains, and
// the implication benchmark workload.
func probeWorkloads() []probeWorkload {
	var out []probeWorkload
	for seed := int64(0); seed < 12; seed++ {
		for _, varPct := range []int{1, 50, 100} {
			u, sigma, phis := diffWorkload(seed*100+int64(varPct), varPct)
			out = append(out, probeWorkload{fmt.Sprintf("diff seed %d var%%=%d", seed, varPct), u, sigma, phis})
		}
	}
	for seed := int64(0); seed < 8; seed++ {
		for _, finite := range []bool{false, true} {
			u, sigma, phis := poolWorkload(seed, finite)
			out = append(out, probeWorkload{fmt.Sprintf("pool seed %d finite=%t", seed, finite), u, sigma, phis})
		}
	}
	u, sigma, phis := implBenchWorkload(13, 150)
	return append(out, probeWorkload{"bench", u, sigma, phis})
}

// TestLeftReduceMatchesRestart requires the one-pass left-reduction to
// reduce every candidate exactly as the restart scan does, on a session
// compiled with the same work set.
func TestLeftReduceMatchesRestart(t *testing.T) {
	compared := 0
	for _, w := range probeWorkloads() {
		s := NewSession(w.u)
		work, err := s.minCoverNormalize(w.sigma)
		if err != nil {
			t.Fatal(err)
		}
		cands := append([]*cfd.CFD(nil), work...)
		for _, c := range w.extra {
			if !c.IsTrivial() {
				cands = append(cands, c)
			}
		}
		for _, c := range cands {
			got, err := s.leftReduceOne(c)
			if err != nil {
				t.Fatal(err)
			}
			want, err := leftReduceRestart(c, s.inner.implies)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Fatalf("%s: %s reduces to %s, restart scan to %s", w.name, c, got, want)
			}
			compared++
		}
	}
	if compared < 1000 {
		t.Fatalf("only %d candidates compared; want >= 1000", compared)
	}

	// A probe skipped as trivial is not a failed probe: position 0's probe
	// [A=c, B=b] -> [A=c] is trivial until position 1 drops the wildcard
	// A, after which [B=b] -> [A=c] holds. cfd.New rejects the repeated
	// attribute, but a struct literal passes Validate.
	s := NewSession(InfiniteUniverse("R", "A", "B"))
	if err := s.SetSigma(parse(t, `R([B=b] -> [A=c])`)); err != nil {
		t.Fatal(err)
	}
	c := &cfd.CFD{Relation: "R",
		LHS: []cfd.Item{{Attr: "A", Pat: cfd.Any()}, {Attr: "A", Pat: cfd.Eq("c")}, {Attr: "B", Pat: cfd.Eq("b")}},
		RHS: []cfd.Item{{Attr: "A", Pat: cfd.Eq("c")}}}
	want, err := leftReduceRestart(c, s.inner.implies)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.leftReduceOne(c)
	if err != nil {
		t.Fatal(err)
	}
	if want.String() != `R([B=b] -> [A=c])` || got.String() != want.String() {
		t.Fatalf("repeated-attribute candidate: one pass gives %s, restart scan %s; want R([B=b] -> [A=c])", got, want)
	}
}

// finiteWorkload builds Σ and a φ pool over a universe that mixes an empty
// finite domain (E), two overlapping finite domains (P, Q), a one-value
// domain (O) and infinite attributes. Constants come from {a, b, c, d}; Σ
// draws them from a seeded subset, so φ may mention constants Σ never does.
// Σ holds equality CFDs, and any LHS may repeat an attribute.
func finiteWorkload(seed int64) (Universe, []*cfd.CFD, []*cfd.CFD) {
	rng := rand.New(rand.NewSource(seed))
	attrs := []rel.Attribute{
		{Name: "E", Domain: rel.FiniteDomain("empty")},
		{Name: "P", Domain: rel.FiniteDomain("abc", "a", "b", "c")},
		{Name: "Q", Domain: rel.FiniteDomain("bcd", "b", "c", "d")},
		{Name: "O", Domain: rel.FiniteDomain("one", "a")},
		{Name: "W", Domain: rel.Infinite()},
		{Name: "X", Domain: rel.Infinite()},
		{Name: "Y", Domain: rel.Infinite()},
		{Name: "Z", Domain: rel.Infinite()},
	}
	pool := []string{"a", "b", "c", "d"}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	sigmaPool := pool[:2+rng.Intn(3)]
	attr := func() string { return attrs[rng.Intn(len(attrs))].Name }
	draw := func(num, maxLHS, eqPct int, consts []string) []*cfd.CFD {
		pat := func() cfd.Pattern {
			if rng.Intn(2) == 0 {
				return cfd.Any()
			}
			return cfd.Eq(consts[rng.Intn(len(consts))])
		}
		var out []*cfd.CFD
		for len(out) < num {
			if rng.Intn(100) < eqPct {
				out = append(out, cfd.NewEquality("F", attr(), attr()))
				continue
			}
			lhs := make([]cfd.Item, rng.Intn(maxLHS+1))
			for i := range lhs {
				lhs[i] = cfd.Item{Attr: attr(), Pat: pat()}
			}
			out = append(out, &cfd.CFD{Relation: "F", LHS: lhs, RHS: []cfd.Item{{Attr: attr(), Pat: pat()}}})
		}
		return out
	}
	sigma := draw(8+rng.Intn(12), 3, rng.Intn(15), sigmaPool)
	return NewUniverse("F", attrs), sigma, draw(60, 4, 10, pool)
}

// replayMinCover replays MinCover's probes over a work set on a fresh
// session: every probe of the restart left-reduction scan, then the
// redundancy loop under the skip and dead masks over the reduced set.
// check receives each probe with the session and the alive Σ it runs
// against, and decides it; a probe that errors counts as not implied, so
// Σ may hold constants outside their domains.
func replayMinCover(t *testing.T, u Universe, sigma []*cfd.CFD, check func(sess *session, alive []*cfd.CFD, phi *cfd.CFD) (bool, error)) {
	t.Helper()
	s := NewSession(u)
	work, err := s.minCoverNormalize(sigma)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.inner
	reduced := make([]*cfd.CFD, len(work))
	for i, c := range work {
		if reduced[i], err = leftReduceRestart(c, func(phi *cfd.CFD) (bool, error) { return check(sess, work, phi) }); err != nil {
			t.Fatal(err)
		}
	}
	work = cfd.Dedup(reduced)
	if err := sess.setSigma(work); err != nil {
		t.Fatal(err)
	}
	for i := range work {
		sess.setSkip(i)
		var alive []*cfd.CFD
		for j, c := range work {
			if sess.alive(int32(j)) {
				alive = append(alive, c)
			}
		}
		ok, err := check(sess, alive, work[i])
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			sess.markDead(i)
		}
	}
	sess.setSkip(-1)
}

// TestClosureMatchesReference requires the counter closure to give the
// reference session's answer, or its error text, on finite domains and
// equality components: random Σ and φ over finiteWorkload's universe, and
// every left-reduction and redundancy probe of those workloads and of
// probeWorkloads(), replayed under the skip and dead masks.
func TestClosureMatchesReference(t *testing.T) {
	compared, impliedN, vacuousN, errN := 0, 0, 0, 0
	compare := func(t *testing.T, name string, sess *session, alive []*cfd.CFD, phi *cfd.CFD) (bool, error) {
		t.Helper()
		ref, err := newRefSession(sess.u, alive)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := ref.implies(phi)
		v, gotErr := sess.decide(phi)
		got := v != rejected
		compared++
		switch {
		case (wantErr == nil) != (gotErr == nil) || wantErr != nil && wantErr.Error() != gotErr.Error():
			t.Fatalf("%s: %s errors with %v, reference with %v\nΣ = %v", name, phi, gotErr, wantErr, alive)
		case wantErr != nil:
			errN++
			return false, nil
		case got != want:
			t.Fatalf("%s: closure says %v (verdict %d), reference says %v for %s\nΣ = %v", name, got, v, want, phi, alive)
		case v == vacuous:
			vacuousN++
		case got:
			impliedN++
		}
		return got, nil
	}
	for seed := int64(0); seed < 200; seed++ {
		name := fmt.Sprintf("finite seed %d", seed)
		u, sigma, phis := finiteWorkload(seed)
		sess, err := newSession(u, sigma)
		if err != nil {
			t.Fatal(err)
		}
		for _, phi := range phis {
			compare(t, name, sess, sigma, phi)
		}
		replayMinCover(t, u, sigma, func(sess *session, alive []*cfd.CFD, phi *cfd.CFD) (bool, error) {
			return compare(t, name, sess, alive, phi)
		})
	}
	for _, w := range probeWorkloads() {
		replayMinCover(t, w.u, w.sigma, func(sess *session, alive []*cfd.CFD, phi *cfd.CFD) (bool, error) {
			return compare(t, w.name, sess, alive, phi)
		})
	}
	t.Logf("%d comparisons: %d implied, %d vacuous, %d errors", compared, impliedN, vacuousN, errN)
	if compared < 20000 || impliedN == 0 || vacuousN == 0 || errN == 0 {
		t.Fatalf("%d comparisons, %d implied, %d vacuous, %d errors; want >= 20000 and some of each",
			compared, impliedN, vacuousN, errN)
	}
}
