package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"cfdprop/internal/algebra"
	"cfdprop/internal/cfd"
	"cfdprop/internal/implication"
	"cfdprop/internal/parutil"
	"cfdprop/internal/rel"
)

// scratchPropCFDSPC computes PropCFDSPC's cover outside CoverSession,
// kept as the reference the sessions are compared with: Fig. 2 line 1 as a
// per-relation MinCover on fresh sessions, then propSPCTail. It assumes an
// infinite-domain schema.
func scratchPropCFDSPC(db *rel.DBSchema, view *algebra.SPC, sigma []*cfd.CFD, opts Options) (*Result, error) {
	if err := view.Validate(db); err != nil {
		return nil, err
	}
	if err := cfd.ValidateAll(sigma, db); err != nil {
		return nil, err
	}
	viewSchema, err := view.ViewSchema(db)
	if err != nil {
		return nil, err
	}
	sigma = cfd.NormalizeAll(sigma)
	if !opts.SkipPreMinCover {
		if sigma, err = minCoverPerRelation(optContext(opts), db, sigma, optParallelism(opts)); err != nil {
			return nil, err
		}
	}
	return propSPCTail(db, view, viewSchema, sigma, opts)
}

// minCoverPerRelation applies MinCover to each relation's bucket of Σ on a
// fresh session per relation, fanned out over par workers; the output
// keeps the first-appearance relation order.
func minCoverPerRelation(ctx context.Context, db *rel.DBSchema, sigma []*cfd.CFD, par int) ([]*cfd.CFD, error) {
	byRel := make(map[string][]*cfd.CFD)
	var order []string
	for _, c := range sigma {
		if _, seen := byRel[c.Relation]; !seen {
			order = append(order, c.Relation)
		}
		byRel[c.Relation] = append(byRel[c.Relation], c)
	}
	covers := make([][]*cfd.CFD, len(order))
	errs := make([]error, len(order))
	if err := parutil.DoCtx(ctx, len(order), par, func(_, i int) {
		sess := implication.NewSession(implication.UniverseOf(db.Relation(order[i])))
		sess.SetContext(ctx)
		covers[i], errs[i] = sess.MinCover(byRel[order[i]])
	}); err != nil {
		return nil, err
	}
	var out []*cfd.CFD
	for i := range order {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out = append(out, covers[i]...)
	}
	return out, nil
}

// coverScriptWorkload builds a multi-relation schema, a union view whose
// disjuncts each embed one relation (so a one-relation Σ edit leaves most
// disjuncts' covered Σ unchanged), and a pool of candidate Σ CFDs.
func coverScriptWorkload(rng *rand.Rand) (*rel.DBSchema, *algebra.SPCU, []*cfd.CFD) {
	attrs := []string{"A", "B", "C"}
	relNames := []string{"R0", "R1", "R2"}
	var schemas []*rel.Schema
	for _, name := range relNames {
		schemas = append(schemas, rel.InfiniteSchema(name, attrs...))
	}
	db := rel.MustDBSchema(schemas...)

	k := 3 + rng.Intn(2)
	ds := make([]*algebra.SPC, k)
	for d := range ds {
		q := &algebra.SPC{
			Name:       "V",
			Atoms:      []algebra.RelAtom{{Source: relNames[d%len(relNames)], Attrs: attrs}},
			Projection: attrs,
		}
		if rng.Intn(2) == 0 {
			q.Selection = []algebra.EqAtom{{Left: attrs[rng.Intn(len(attrs))], IsConst: true, Right: "1"}}
		}
		ds[d] = q
	}
	view, err := algebra.NewSPCU("V", ds...)
	if err != nil {
		panic(err)
	}

	pat := func() cfd.Pattern {
		switch rng.Intn(3) {
		case 0:
			return cfd.Eq("1")
		case 1:
			return cfd.Eq("2")
		default:
			return cfd.Any()
		}
	}
	var pool []*cfd.CFD
	for _, name := range relNames {
		for i := 0; i < 6; i++ {
			perm := rng.Perm(3)
			c := &cfd.CFD{
				Relation: name,
				LHS:      []cfd.Item{{Attr: attrs[perm[0]], Pat: pat()}},
				RHS:      []cfd.Item{{Attr: attrs[perm[1]], Pat: pat()}},
			}
			if !c.IsTrivial() {
				pool = append(pool, c)
			}
		}
	}
	return db, view, pool
}

// stripUnionCounters zeroes the memo tallies — the only UnionResult fields
// a carryover run may legitimately differ on from a from-scratch run.
func stripUnionCounters(r *UnionResult) UnionResult {
	c := *r
	c.MemoHits, c.MemoMisses = 0, 0
	return c
}

// TestCoverSessionMatchesScratch replays randomized Σ edit scripts through
// CoverSession (one session per parallelism level) and requires every
// incremental cover to match a from-scratch one, cover contents included:
// the union cover a cold PropCFDSPCU computes, and each disjunct's cover
// from scratchPropCFDSPC, which runs outside CoverSession.
func TestCoverSessionMatchesScratch(t *testing.T) {
	seeds := int64(5)
	if testing.Short() {
		seeds = 2
	}
	var carried int64
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db, view, pool := coverScriptWorkload(rng)

		levels := []int{1, 4, 8}
		sessions := make([]*CoverSession, len(levels))
		for i, par := range levels {
			cs, err := NewCoverSession(db, view, Options{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			sessions[i] = cs
		}

		var sigma []*cfd.CFD
		for i := 0; i < 5; i++ {
			sigma = append(sigma, pool[rng.Intn(len(pool))])
		}
		ctx := context.Background()
		for step := 0; step < 8; step++ {
			if len(sigma) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(sigma))
				sigma = append(sigma[:i:i], sigma[i+1:]...)
			} else {
				sigma = append(sigma, pool[rng.Intn(len(pool))])
			}

			var ref *UnionResult
			for i, par := range levels {
				got, err := sessions[i].Cover(ctx, sigma)
				if err != nil {
					t.Fatalf("seed %d step %d par %d: %v", seed, step, par, err)
				}
				if ref == nil {
					ref = got
				} else if g, w := stripUnionCounters(got), stripUnionCounters(ref); !reflect.DeepEqual(g, w) {
					t.Fatalf("seed %d step %d: parallelism %d diverged\n got: %+v\nwant: %+v", seed, step, par, g, w)
				}
			}
			want, err := PropCFDSPCU(db, view, sigma, Options{Parallelism: 1})
			if err != nil {
				t.Fatalf("seed %d step %d scratch: %v", seed, step, err)
			}
			if g, w := stripUnionCounters(ref), stripUnionCounters(want); !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d step %d: incremental union cover differs from scratch\n got: %+v\nwant: %+v", seed, step, g, w)
			}

			// Per-disjunct: the incremental SPC path must be fully identical
			// (Result carries no memo counters).
			d := step % len(view.Disjuncts)
			gotD, err := sessions[0].CoverDisjunct(ctx, d, sigma)
			if err != nil {
				t.Fatalf("seed %d step %d disjunct %d: %v", seed, step, d, err)
			}
			wantD, err := scratchPropCFDSPC(db, view.Disjuncts[d], sigma, Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotD, wantD) {
				t.Fatalf("seed %d step %d disjunct %d: incremental SPC cover differs\n got: %+v\nwant: %+v", seed, step, d, gotD, wantD)
			}
		}
		carried += sessions[0].CarryStats().PairsCarried + sessions[0].CarryStats().EmptyCarried
	}
	if carried == 0 {
		t.Fatal("no memo entry was ever carried across an edit; the incremental path degenerated to from-scratch")
	}
}

// TestCoverSessionCachesUnchangedSigma: repeating Cover with an unchanged Σ
// returns the cached result without recomputing, and an edit — including
// one made in place in the caller's slice — recomputes.
func TestCoverSessionCachesUnchangedSigma(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	db, view, pool := coverScriptWorkload(rng)
	cs, err := NewCoverSession(db, view, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sigma := pool[:5]
	ctx := context.Background()
	first, err := cs.Cover(ctx, sigma)
	if err != nil {
		t.Fatal(err)
	}
	again, err := cs.Cover(ctx, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatal("unchanged Σ did not return the cached UnionResult")
	}
	misses := cs.MemoStats().Misses

	// An edit touching one relation re-checks only affected pairs: the
	// memo must register new misses, but carry entries too.
	edited := append(append([]*cfd.CFD(nil), sigma...), pool[len(pool)-1])
	if _, err := cs.Cover(ctx, edited); err != nil {
		t.Fatal(err)
	}
	st := cs.CarryStats()
	if st.PairsCarried+st.EmptyCarried == 0 {
		t.Fatalf("edit carried nothing: %+v", st)
	}
	if cs.MemoStats().Misses == misses && cs.MemoStats().Hits == 0 {
		t.Fatal("edited Σ neither hit nor missed the memo; checks did not run")
	}

	// Editing the caller's slice in place between two calls is an edit
	// too: the session keys on its own copy of Σ, so it recomputes. The
	// disjunct path is checked under SkipPreMinCover, where the covered Σ
	// is the caller's slice itself.
	other := pool[len(pool)-2]
	for _, c := range edited {
		if c.String() == other.String() {
			t.Fatalf("workload: %s already in Σ", other)
		}
	}
	ds, err := NewCoverSession(db, view, Options{SkipPreMinCover: true})
	if err != nil {
		t.Fatal(err)
	}
	before, err := cs.Cover(ctx, edited)
	if err != nil {
		t.Fatal(err)
	}
	beforeD, err := ds.CoverDisjunct(ctx, 0, edited)
	if err != nil {
		t.Fatal(err)
	}
	edited[0] = other
	after, err := cs.Cover(ctx, edited)
	if err != nil {
		t.Fatal(err)
	}
	afterD, err := ds.CoverDisjunct(ctx, 0, edited)
	if err != nil {
		t.Fatal(err)
	}
	if after == before || afterD == beforeD {
		t.Fatal("an in-place edit of the caller's Σ slice returned the cached result")
	}
	want, err := PropCFDSPCU(db, view, edited, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := stripUnionCounters(after), stripUnionCounters(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("cover after an in-place edit differs from scratch\n got: %+v\nwant: %+v", g, w)
	}
	wantD, err := scratchPropCFDSPC(db, view.Disjuncts[0], edited, Options{SkipPreMinCover: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(afterD, wantD) {
		t.Fatalf("disjunct cover after an in-place edit differs from scratch\n got: %+v\nwant: %+v", afterD, wantD)
	}
}
