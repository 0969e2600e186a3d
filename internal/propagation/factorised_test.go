package propagation

import (
	"math/rand"
	"reflect"
	"testing"

	"cfdprop/internal/algebra"
	"cfdprop/internal/cfd"
)

// The factorised-chase differential suite: serialOracle keeps the
// original re-chase-per-assignment loop (scanChunk) alive as a test-only
// oracle, and checkAllLevels pins the factorised path (shared-prefix
// chase + journal rollback) to it field by field — Propagated,
// PairsChecked, Instantiations, Truncated, Stopped and the counterexample
// bytes — at Parallelism 1, 4 and 8, over randomized unions, Σ and
// truncation caps. Run with -race to exercise the worker interleavings.

// TestFactorisedMatchesFullRechase sweeps randomized general-setting
// workloads — union views with empty disjuncts, random Σ, finite domains,
// and (half the time) a truncation cap that bites mid-enumeration.
func TestFactorisedMatchesFullRechase(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	trials := 60
	if testing.Short() {
		trials = 15
	}
	refuted, truncated, insts := 0, 0, 0
	for trial := 0; trial < trials; trial++ {
		db := finiteSchema(2 + rng.Intn(2))
		view := randomUnionView(rng, []string{"A", "B", "C", "D"})
		sigma := randomSmallCFDs(rng, 1+rng.Intn(3))
		phi := randomSmallViewCFD(rng, view.Disjuncts[0])
		if phi == nil {
			continue
		}
		opts := Options{General: true, WantCounterexample: true}
		if rng.Intn(2) == 0 {
			opts.MaxInstantiations = 1 + rng.Intn(30)
		}
		r := checkAllLevels(t, db, view, sigma, phi, opts)
		if !r.Propagated {
			refuted++
		}
		if r.Truncated {
			truncated++
		}
		insts += r.Instantiations
	}
	if refuted == 0 || truncated == 0 || insts == 0 {
		t.Fatalf("degenerate sweep: refuted=%d truncated=%d instantiations=%d",
			refuted, truncated, insts)
	}
}

// TestFactorisedMatchesFullRechaseEquality covers the equality-CFD loop in
// the general setting, where the enumeration runs over a single tableau.
func TestFactorisedMatchesFullRechaseEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 25; trial++ {
		db := finiteSchema(2)
		view := randomUnionView(rng, []string{"A", "B", "C", "D"})
		attrs := view.Disjuncts[0].Projection
		phi := cfd.NewEquality("V", attrs[rng.Intn(len(attrs))], attrs[rng.Intn(len(attrs))])
		if phi.LHS[0].Attr == phi.RHS[0].Attr {
			continue
		}
		sigma := randomSmallCFDs(rng, 2)
		checkAllLevels(t, db, view, sigma, phi, Options{General: true, WantCounterexample: true})
	}
}

// zeroMemoCounters strips the memo hit/miss counters, which legitimately
// differ between a cold and a warm run of the same workload.
func zeroMemoCounters(r *Result) *Result {
	c := *r
	c.MemoHits, c.MemoMisses = 0, 0
	return &c
}

// TestMemoReplayByteIdentical: a cold Check that fills a memo must match
// the serial oracle, and a warm Check served from the memo must reproduce
// the cold Result exactly (verdict, Instantiations, Truncated,
// counterexample bytes) at every parallelism level — memo counters
// included, across levels — for pair and equality φs alike, and must
// actually hit: every pair verdict replays, and the scout answers every
// disjunct's emptiness from the memo instead of building its tableau.
func TestMemoReplayByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	hits := int64(0)
	for trial := 0; trial < 40; trial++ {
		db := finiteSchema(2)
		view := randomUnionView(rng, []string{"A", "B", "C", "D"})
		sigma := randomSmallCFDs(rng, 2)
		var phi *cfd.CFD
		if trial%4 == 3 {
			attrs := view.Disjuncts[0].Projection
			phi = cfd.NewEquality("V", attrs[rng.Intn(len(attrs))], attrs[rng.Intn(len(attrs))])
			if phi.LHS[0].Attr == phi.RHS[0].Attr {
				continue
			}
		} else if phi = randomSmallViewCFD(rng, view.Disjuncts[0]); phi == nil {
			continue
		}
		memo := NewMemo()
		opts := Options{General: true, WantCounterexample: true, Memo: memo}
		cold, err := Check(db, view, sigma, phi, opts)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := serialOracle(db, view, sigma, phi, Options{General: true, WantCounterexample: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(zeroMemoCounters(cold), ref) {
			t.Fatalf("cold memo run diverged from the oracle (V=%s φ=%s Σ=%v)\n got: %+v\nwant: %+v",
				view, phi, sigma, cold, ref)
		}
		var warm1 *Result
		for _, par := range []int{1, 4, 8} {
			o := opts
			o.Parallelism = par
			before := memo.Stats()
			warm, err := Check(db, view, sigma, phi, o)
			if err != nil {
				t.Fatal(err)
			}
			after := memo.Stats()
			if !reflect.DeepEqual(zeroMemoCounters(warm), zeroMemoCounters(cold)) {
				t.Fatalf("parallelism %d: warm run diverged (V=%s φ=%s Σ=%v)\n got: %+v\nwant: %+v",
					par, view, phi, sigma, warm, cold)
			}
			if warm1 == nil {
				warm1 = warm
			} else if !reflect.DeepEqual(warm, warm1) {
				t.Fatalf("parallelism %d: warm memo counters differ from parallelism 1: %+v vs %+v", par, warm, warm1)
			}
			if warm.MemoMisses != 0 {
				t.Fatalf("parallelism %d: warm run recomputed %d pairs", par, warm.MemoMisses)
			}
			if after.EmptyMisses != before.EmptyMisses || after.EmptyHits == before.EmptyHits {
				t.Fatalf("parallelism %d: warm scout did not answer emptiness from the memo: %+v -> %+v",
					par, before, after)
			}
			hits += int64(warm.MemoHits)
		}
		if s := memo.Stats(); s.Hits == 0 && cold.MemoMisses > 0 {
			t.Fatalf("memo never hit despite %d stored pairs: %+v", cold.MemoMisses, s)
		}
	}
	if hits == 0 {
		t.Fatal("no warm run ever hit the memo; the sweep is degenerate")
	}
}

// TestSerialEmptyPreseedParity: at Parallelism 1 the lone worker's scout
// pre-seeds disjunct emptiness from the memo like the parallel one, so a
// warm serial run skips the doomed tableau builds while staying
// byte-identical — to a memo-free serial run, and to a warm Parallelism 4
// run including the per-call MemoHits/MemoMisses counters. The memo's
// EmptyHits counter proves the serial run actually consulted the cache.
func TestSerialEmptyPreseedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	checked := 0
	for trial := 0; trial < 40; trial++ {
		db := finiteSchema(2)
		view := randomUnionView(rng, []string{"A", "B", "C", "D"})
		sigma := randomSmallCFDs(rng, 2)
		var phi *cfd.CFD
		if trial%4 == 3 {
			attrs := view.Disjuncts[0].Projection
			phi = cfd.NewEquality("V", attrs[rng.Intn(len(attrs))], attrs[rng.Intn(len(attrs))])
			if phi.LHS[0].Attr == phi.RHS[0].Attr {
				continue
			}
		} else if phi = randomSmallViewCFD(rng, view.Disjuncts[0]); phi == nil {
			continue
		}
		base := Options{General: true, WantCounterexample: true, Parallelism: 1}
		cold, err := Check(db, view, sigma, phi, base)
		if err != nil {
			t.Fatal(err)
		}

		memo := NewMemo()
		warm := base
		warm.Memo = memo
		if _, err := Check(db, view, sigma, phi, warm); err != nil {
			t.Fatal(err)
		}
		before := memo.Stats()
		serial, err := Check(db, view, sigma, phi, warm)
		if err != nil {
			t.Fatal(err)
		}
		after := memo.Stats()
		if !reflect.DeepEqual(zeroMemoCounters(serial), zeroMemoCounters(cold)) {
			t.Fatalf("warm serial diverged from memo-free run (V=%s φ=%s Σ=%v)\n got: %+v\nwant: %+v",
				view, phi, sigma, serial, cold)
		}
		if after.EmptyMisses != before.EmptyMisses || after.EmptyHits == before.EmptyHits {
			t.Fatalf("warm serial run did not answer emptiness from the memo: %+v -> %+v", before, after)
		}
		par := warm
		par.Parallelism = 4
		parallel, err := Check(db, view, sigma, phi, par)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("warm serial diverged from warm parallel (V=%s φ=%s Σ=%v)\n got: %+v\nwant: %+v",
				view, phi, sigma, serial, parallel)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("every trial was skipped; the sweep is degenerate")
	}
}

// TestMemoCounterexampleUpgrade: an entry stored without a counterexample
// does not satisfy a WantCounterexample lookup — the pair is recomputed,
// the witness matches a memo-free run byte for byte, and the flushed
// upgrade serves later lookups from the memo.
func TestMemoCounterexampleUpgrade(t *testing.T) {
	db := finiteSchema(2)
	q := algebra.Single(&algebra.SPC{
		Name:       "V",
		Atoms:      []algebra.RelAtom{{Source: "S", Attrs: []string{"A", "B", "C", "D"}}},
		Projection: []string{"A", "B", "C", "D"},
	})
	phi := cfd.MustParse(`V(A -> B)`) // refuted immediately: no Σ constrains B
	bare, err := Check(db, q, nil, phi, Options{General: true, WantCounterexample: true})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Propagated || bare.Counterexample == nil {
		t.Fatalf("workload must refute with a witness: %+v", bare)
	}

	memo := NewMemo()
	first, err := Check(db, q, nil, phi, Options{General: true, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	if first.Propagated || first.MemoMisses == 0 {
		t.Fatalf("cold cex-less run must evaluate and refute: %+v", first)
	}

	second, err := Check(db, q, nil, phi, Options{General: true, WantCounterexample: true, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	if second.MemoHits != 0 || second.MemoMisses == 0 {
		t.Fatalf("cex-less entry must not satisfy a WantCounterexample lookup: %+v", second)
	}
	if !reflect.DeepEqual(second.Counterexample, bare.Counterexample) {
		t.Fatalf("recomputed counterexample differs from the memo-free one\n got: %+v\nwant: %+v",
			second.Counterexample, bare.Counterexample)
	}

	third, err := Check(db, q, nil, phi, Options{General: true, WantCounterexample: true, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	if third.MemoHits == 0 || third.MemoMisses != 0 {
		t.Fatalf("upgraded entry must serve the third run: %+v", third)
	}
	if !reflect.DeepEqual(third.Counterexample, bare.Counterexample) {
		t.Fatal("replayed counterexample bytes differ")
	}
}
