package propagation

import (
	"math/rand"
	"reflect"
	"testing"

	"cfdprop/internal/algebra"
	"cfdprop/internal/cfd"
	"cfdprop/internal/rel"
	"cfdprop/internal/sym"
)

// These tests pin the schedule executor to an independent serial oracle:
// for Parallelism ∈ {1, 4, 8} the Result must equal the oracle's in every
// field — verdict, counterexample bytes, PairsChecked, Instantiations,
// Truncated — over randomized schemas, unions and finite domains. Run
// with -race to exercise the worker interleavings.

// checkAllLevels runs Check at the three parallelism levels and requires
// each Result to equal the serial oracle's.
func checkAllLevels(t *testing.T, db *rel.DBSchema, view *algebra.SPCU, sigma []*cfd.CFD, phi *cfd.CFD, opts Options) *Result {
	t.Helper()
	ref, err := serialOracle(db, view, sigma, phi, opts)
	if err != nil {
		t.Fatalf("oracle: %v (V=%s φ=%s Σ=%v)", err, view, phi, sigma)
	}
	for _, par := range []int{1, 4, 8} {
		o := opts
		o.Parallelism = par
		r, err := Check(db, view, sigma, phi, o)
		if err != nil {
			t.Fatalf("parallelism %d: %v (V=%s φ=%s Σ=%v)", par, err, view, phi, sigma)
		}
		if !reflect.DeepEqual(r, ref) {
			t.Fatalf("parallelism %d diverged from the oracle (V=%s φ=%s Σ=%v)\n got: %+v\nwant: %+v",
				par, view, phi, sigma, r, ref)
		}
	}
	return ref
}

// serialOracle decides Σ |=V φ with the paper's §3 procedure written as
// the plain nested loop over disjunct pairs (i, j ≥ i): it finds empty
// disjuncts as it goes and enumerates each pair's finite-domain
// assignments in order, re-chasing every one (scanChunk). It shares only
// the pair preparation and the chase with Check, and has no memo and no
// stop controls: TestMemoReplayByteIdentical and stop_test.go cover those.
func serialOracle(db *rel.DBSchema, view *algebra.SPCU, sigma []*cfd.CFD, phi *cfd.CFD, opts Options) (*Result, error) {
	if opts.MaxInstantiations <= 0 {
		opts.MaxInstantiations = DefaultMaxInstantiations
	}
	sigmaN := cfd.NormalizeAll(sigma)
	w, err := newPairWorker(db)
	if err != nil {
		return nil, err
	}
	res := &Result{Propagated: true}
	// run evaluates one prepared pair; it reports false on a refutation.
	run := func(ev *pairEval) (bool, error) {
		roots := 0
		var plan enumPlan
		if opts.General {
			var emptyDomain bool
			if plan, emptyDomain = planEnumeration(w.st, opts.MaxInstantiations); emptyDomain {
				return true, nil
			}
			roots = len(plan.roots)
			if roots == 0 {
				res.Instantiations++
			}
		}
		if roots == 0 {
			ok, err := ev.evaluate()
			if err == nil && !ok && opts.WantCounterexample {
				// Like Check, leave out a witness that cannot be built.
				res.Counterexample, _ = w.ci.Concrete(db, true)
			}
			return ok, err
		}
		r := scanChunk(w, db, opts, plan, ev)
		res.Instantiations += r.count
		switch {
		case r.stopErr != nil:
			return false, r.stopErr
		case r.stopIdx >= 0:
			res.Counterexample = r.cex
			return false, nil
		}
		res.Truncated = res.Truncated || plan.capped
		return true, nil
	}
	for _, p := range phi.Normalize() {
		k := len(view.Disjuncts)
		empty := make([]bool, k)
		for i := 0; i < k; i++ {
			last := k - 1
			if p.Equality {
				last = i // an equality CFD is checked on each disjunct alone
			}
			for j := i; j <= last && !empty[i]; j++ {
				if empty[j] {
					continue
				}
				res.PairsChecked++
				w.reset()
				ev := &pairEval{sigmaN: sigmaN}
				if p.Equality {
					t, outcome, err := prepareEquality(w, db, view.Disjuncts[i])
					if err != nil {
						return nil, err
					}
					if outcome == prepEmptyFirst {
						continue
					}
					ev.evaluate = equalityEvaluate(w, sigmaN, t, p.LHS[0].Attr, p.RHS[0].Attr)
				} else {
					t1, t2, outcome, err := preparePair(w, db, view.Disjuncts[i], view.Disjuncts[j], p)
					if err != nil {
						return nil, err
					}
					switch outcome {
					case prepEmptyFirst:
						empty[i] = true
						continue
					case prepEmptySecond:
						empty[j] = true
						continue
					case prepUnrealizable:
						continue
					}
					ev.evaluate = pairEvaluate(w, sigmaN, t1, t2, p.RHS[0])
				}
				ok, err := run(ev)
				if err != nil {
					return nil, err
				}
				if !ok {
					res.Propagated = false
					return res, nil
				}
			}
		}
	}
	return res, nil
}

// scanChunk scans every assignment index of plan in ascending order,
// re-chasing the full pair per assignment from the pre-bind state — the
// reference enumeration scanFactorised is differentially tested against.
// It stops at the first refuting or erroring index.
func scanChunk(w *pairWorker, db *rel.DBSchema, opts Options, plan enumPlan, ev *pairEval) chunkResult {
	st := w.st
	base := st.Save()
	choice := make([]int, len(plan.roots))
	r := chunkResult{stopIdx: -1}
	for idx := 0; idx < plan.limit; idx++ {
		st.Restore(base)
		plan.decode(idx, choice)
		applicable := true
		for i, rt := range plan.roots {
			if st.Bind(sym.Variable(rt), plan.domains[i][choice[i]]) != nil {
				applicable = false
				break
			}
		}
		if !applicable {
			continue
		}
		r.count++
		ok, err := ev.evaluate()
		if err != nil {
			r.stopIdx, r.stopErr = idx, err
			return r
		}
		if !ok {
			r.stopIdx = idx
			if opts.WantCounterexample {
				if witness, err := w.ci.Concrete(db, true); err == nil {
					r.cex = witness
				}
			}
			return r
		}
	}
	return r
}

// randomUnionView builds a 2–4 disjunct union over S with random
// (sometimes self-contradictory) selections, exercising the empty-disjunct
// schedule entries alongside full pair checks.
func randomUnionView(rng *rand.Rand, attrs []string) *algebra.SPCU {
	k := 2 + rng.Intn(3)
	ds := make([]*algebra.SPC, k)
	for d := range ds {
		q := &algebra.SPC{
			Name:       "V",
			Atoms:      []algebra.RelAtom{{Source: "S", Attrs: attrs}},
			Projection: attrs,
		}
		switch rng.Intn(4) {
		case 0:
			q.Selection = []algebra.EqAtom{{Left: attrs[rng.Intn(len(attrs))], IsConst: true, Right: "1"}}
		case 1:
			a := attrs[rng.Intn(len(attrs))]
			// Self-contradictory: this disjunct is unconditionally empty.
			q.Selection = []algebra.EqAtom{
				{Left: a, IsConst: true, Right: "1"},
				{Left: a, IsConst: true, Right: "2"},
			}
		case 2:
			a, b := rng.Intn(len(attrs)), rng.Intn(len(attrs))
			if a != b {
				q.Selection = []algebra.EqAtom{{Left: attrs[a], Right: attrs[b]}}
			}
		}
		ds[d] = q
	}
	view, err := algebra.NewSPCU("V", ds...)
	if err != nil {
		panic(err)
	}
	return view
}

// TestParallelMatchesSerialUnion sweeps randomized union views and CFDs in
// the infinite-domain setting.
func TestParallelMatchesSerialUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	trials := 80
	if testing.Short() {
		trials = 20
	}
	refuted := 0
	for trial := 0; trial < trials; trial++ {
		db := rel.MustDBSchema(rel.InfiniteSchema("S", "A", "B", "C"))
		view := randomUnionView(rng, []string{"A", "B", "C"})
		sigma := randomSmallCFDs(rng, 2)
		phi := randomSmallViewCFD(rng, view.Disjuncts[0])
		if phi == nil {
			continue
		}
		r := checkAllLevels(t, db, view, sigma, phi, Options{WantCounterexample: true})
		if !r.Propagated {
			refuted++
		}
	}
	if refuted == 0 {
		t.Fatal("no trial refuted; the cancellation path was never exercised")
	}
}

// finiteSchema builds S with two infinite and two finite attributes.
func finiteSchema(domSize int) *rel.DBSchema {
	vals := make([]string, domSize)
	for i := range vals {
		vals[i] = string(rune('1' + i))
	}
	return rel.MustDBSchema(rel.MustSchema("S",
		rel.Attribute{Name: "A", Domain: rel.Infinite()},
		rel.Attribute{Name: "B", Domain: rel.Infinite()},
		rel.Attribute{Name: "C", Domain: rel.FiniteDomain("d", vals...)},
		rel.Attribute{Name: "D", Domain: rel.FiniteDomain("d", vals...)},
	))
}

// TestParallelMatchesSerialGeneral sweeps the general setting: finite
// domains make the per-pair instantiation enumeration (and its
// within-pair fan-out) do the work, and Instantiations must agree
// exactly under cancellation.
func TestParallelMatchesSerialGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	trials := 60
	if testing.Short() {
		trials = 15
	}
	refuted, insts := 0, 0
	for trial := 0; trial < trials; trial++ {
		db := finiteSchema(2)
		view := randomUnionView(rng, []string{"A", "B", "C", "D"})
		sigma := randomSmallCFDs(rng, 2)
		phi := randomSmallViewCFD(rng, view.Disjuncts[0])
		if phi == nil {
			continue
		}
		r := checkAllLevels(t, db, view, sigma, phi, Options{General: true, WantCounterexample: true})
		if !r.Propagated {
			refuted++
		}
		insts += r.Instantiations
	}
	if refuted == 0 || insts == 0 {
		t.Fatalf("degenerate sweep: refuted=%d instantiations=%d", refuted, insts)
	}
}

// TestParallelMatchesSerialEquality covers the equality-CFD loop.
func TestParallelMatchesSerialEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 30; trial++ {
		db := rel.MustDBSchema(rel.InfiniteSchema("S", "A", "B", "C"))
		view := randomUnionView(rng, []string{"A", "B", "C"})
		sigma := randomSmallCFDs(rng, 2)
		attrs := view.Disjuncts[0].Projection
		phi := cfd.NewEquality("V", attrs[0], attrs[1%len(attrs)])
		checkAllLevels(t, db, view, sigma, phi, Options{WantCounterexample: true})
	}
}

// TestTruncationReported pins the MaxInstantiations semantics: a pair
// whose instantiation space exceeds the cap examines exactly the first
// cap assignments; exhausting them without a counterexample reports
// Truncated (not an error, not a silent "propagated"), identically at
// every parallelism level.
func TestTruncationReported(t *testing.T) {
	db := finiteSchema(3) // C, D ∈ {1,2,3}; a pair leaves 4 unbound roots = 81 assignments
	q := &algebra.SPC{
		Name:       "V",
		Atoms:      []algebra.RelAtom{{Source: "S", Attrs: []string{"A", "B", "C", "D"}}},
		Projection: []string{"A", "B", "C", "D"},
	}
	view := algebra.Single(q)
	// Σ propagates nothing relevant; φ is propagated on every assignment,
	// so the full space would be enumerated — the cap cuts it short.
	sigma := []*cfd.CFD{cfd.MustParse(`S(A -> B)`)}
	phi := cfd.MustParse(`V(A -> B)`)

	full := checkAllLevels(t, db, view, sigma, phi, Options{General: true})
	if full.Truncated {
		t.Fatalf("uncapped run must not truncate: %+v", full)
	}
	if full.Instantiations != 81 {
		t.Fatalf("uncapped run examined %d assignments, want 81", full.Instantiations)
	}

	capped := checkAllLevels(t, db, view, sigma, phi, Options{General: true, MaxInstantiations: 10})
	if !capped.Truncated {
		t.Fatalf("capped run must report truncation: %+v", capped)
	}
	if !capped.Propagated {
		t.Fatalf("no counterexample exists; capped run must stay propagated: %+v", capped)
	}
	if capped.Instantiations != 10 {
		t.Fatalf("capped run examined %d assignments, want exactly the cap 10", capped.Instantiations)
	}
}

// TestTruncationStillRefutes: a counterexample that lies inside the cap
// is found and is definitive — Truncated stays false.
func TestTruncationStillRefutes(t *testing.T) {
	db := finiteSchema(3)
	q := &algebra.SPC{
		Name:       "V",
		Atoms:      []algebra.RelAtom{{Source: "S", Attrs: []string{"A", "B", "C", "D"}}},
		Projection: []string{"A", "B", "C", "D"},
	}
	view := algebra.Single(q)
	// No Σ: V(A -> B) is refuted by the very first assignment.
	phi := cfd.MustParse(`V(A -> B)`)
	r := checkAllLevels(t, db, view, nil, phi, Options{General: true, MaxInstantiations: 10, WantCounterexample: true})
	if r.Propagated {
		t.Fatal("φ must be refuted")
	}
	if r.Truncated {
		t.Fatalf("a refutation inside the cap is definitive; Truncated must stay false: %+v", r)
	}
	if r.Counterexample == nil {
		t.Fatal("counterexample missing")
	}
}

// TestParallelCounterexampleVerifies replays parallel counterexamples
// through the real evaluator, as the brute-force suite does for serial.
func TestParallelCounterexampleVerifies(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	verified := 0
	for trial := 0; trial < 40 && verified < 8; trial++ {
		db := rel.MustDBSchema(rel.InfiniteSchema("S", "A", "B", "C"))
		view := randomUnionView(rng, []string{"A", "B", "C"})
		sigma := randomSmallCFDs(rng, 2)
		phi := randomSmallViewCFD(rng, view.Disjuncts[0])
		if phi == nil {
			continue
		}
		r, err := Check(db, view, sigma, phi, Options{WantCounterexample: true, Parallelism: 8})
		if err != nil {
			t.Fatal(err)
		}
		if r.Propagated {
			continue
		}
		if r.Counterexample == nil {
			t.Fatal("counterexample missing")
		}
		ok, viol, err := cfd.DatabaseSatisfies(r.Counterexample, sigma)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("counterexample violates Σ: %v", viol)
		}
		out, err := view.Eval(r.Counterexample)
		if err != nil {
			t.Fatal(err)
		}
		sat, err := cfd.Satisfies(out, phi)
		if err != nil {
			t.Fatal(err)
		}
		if sat {
			t.Fatalf("counterexample's view satisfies %s", phi)
		}
		verified++
	}
	if verified == 0 {
		t.Fatal("no parallel counterexamples produced")
	}
}
