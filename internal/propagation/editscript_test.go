package propagation

import (
	"math/rand"
	"reflect"
	"testing"

	"cfdprop/internal/algebra"
	"cfdprop/internal/cfd"
	"cfdprop/internal/rel"
)

// The edit-script differential suite: replay randomized Σ (and view-
// clause) edit scripts twice — once through Memo.Migrate carryover, once
// from scratch — and require byte-identical Results at parallelism 1/4/8.
// The from-scratch run is the oracle for memo carry-over across Σ and
// view edits, as serialOracle is for the factorised chase.

// editScriptWorkload builds a multi-relation schema (so edits have
// nontrivial footprints), a union view whose disjuncts each embed one
// relation, a pool of candidate Σ CFDs across all relations, and a φ
// battery on the view.
func editScriptWorkload(rng *rand.Rand, finite bool) (*rel.DBSchema, *algebra.SPCU, []*cfd.CFD, []*cfd.CFD) {
	attrs := []string{"A", "B", "C"}
	relNames := []string{"R0", "R1", "R2", "R3"}
	var schemas []*rel.Schema
	for _, name := range relNames {
		if finite {
			schemas = append(schemas, rel.MustSchema(name,
				rel.Attribute{Name: "A", Domain: rel.Infinite()},
				rel.Attribute{Name: "B", Domain: rel.FiniteDomain("d", "1", "2")},
				rel.Attribute{Name: "C", Domain: rel.FiniteDomain("d", "1", "2")},
			))
		} else {
			schemas = append(schemas, rel.InfiniteSchema(name, attrs...))
		}
	}
	db := rel.MustDBSchema(schemas...)

	k := 4 + rng.Intn(2)
	ds := make([]*algebra.SPC, k)
	for d := range ds {
		src := relNames[d%len(relNames)]
		q := &algebra.SPC{
			Name:       "V",
			Atoms:      []algebra.RelAtom{{Source: src, Attrs: attrs}},
			Projection: attrs,
		}
		switch rng.Intn(3) {
		case 0:
			q.Selection = []algebra.EqAtom{{Left: attrs[rng.Intn(len(attrs))], IsConst: true, Right: "1"}}
		case 1:
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
		for i := 0; i < 5; i++ {
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
	var phis []*cfd.CFD
	for i := 0; i < 6; i++ {
		if phi := randomSmallViewCFD(rng, view.Disjuncts[0]); phi != nil {
			phis = append(phis, phi)
		}
	}
	return db, view, pool, phis
}

// stripMemoCounters zeroes the fields that legitimately differ between a
// carryover run and a from-scratch run: hit/miss tallies. Everything else
// — verdict, counterexample bytes, PairsChecked, Instantiations, Truncated
// — must match exactly.
func stripMemoCounters(r *Result) Result {
	c := *r
	c.MemoHits, c.MemoMisses = 0, 0
	return c
}

// runEditScript is the shared driver: steps random Σ edits (and, when
// editView is set, view-clause drops/restores), maintaining one migrated
// memo chain per parallelism level plus a from-scratch check per step.
func runEditScript(t *testing.T, seed int64, opts Options, editView bool) (carried, dropped int64) {
	rng := rand.New(rand.NewSource(seed))
	db, fullView, pool, phis := editScriptWorkload(rng, opts.General)
	if len(phis) == 0 {
		return 0, 0
	}
	view := fullView

	levels := []int{1, 4, 8}
	memos := make([]*Memo, len(levels))
	for i := range memos {
		memos[i] = NewMemo()
	}
	var sigma []*cfd.CFD
	for i := 0; i < 6; i++ {
		sigma = append(sigma, pool[rng.Intn(len(pool))])
	}

	steps := 10
	for step := 0; step < steps; step++ {
		prev := append([]*cfd.CFD(nil), sigma...)
		// One Σ edit per step; occasionally a view-clause edit instead.
		if editView && step%4 == 3 {
			if len(view.Disjuncts) == len(fullView.Disjuncts) && len(view.Disjuncts) > 2 {
				shrunk, err := algebra.NewSPCU("V", fullView.Disjuncts[:len(fullView.Disjuncts)-1]...)
				if err != nil {
					t.Fatal(err)
				}
				view = shrunk
			} else {
				view = fullView
			}
		} else if len(sigma) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(sigma))
			sigma = append(sigma[:i:i], sigma[i+1:]...)
		} else {
			sigma = append(sigma, pool[rng.Intn(len(pool))])
		}

		edit := DiffSigma(prev, sigma)
		for i := range memos {
			var cs CarryStats
			memos[i], cs = memos[i].Migrate(view, edit)
			if i == 0 {
				carried += cs.PairsCarried + cs.EmptyCarried
				dropped += cs.PairsDropped + cs.EmptyDropped
			}
		}

		phi := phis[step%len(phis)]
		var ref *Result
		for i, par := range levels {
			o := opts
			o.Parallelism = par
			o.Memo = memos[i]
			r, err := Check(db, view, sigma, phi, o)
			if err != nil {
				t.Fatalf("seed %d step %d par %d: %v", seed, step, par, err)
			}
			if ref == nil {
				ref = r
			} else if !reflect.DeepEqual(r, ref) {
				t.Fatalf("seed %d step %d: parallelism %d diverged within the delta chain\n got: %+v\nwant: %+v",
					seed, step, par, r, ref)
			}
		}
		// From-scratch oracle: fresh memo, no carryover.
		o := opts
		o.Parallelism = 1
		o.Memo = NewMemo()
		want, err := Check(db, view, sigma, phi, o)
		if err != nil {
			t.Fatalf("seed %d step %d scratch: %v", seed, step, err)
		}
		if got, exp := stripMemoCounters(ref), stripMemoCounters(want); !reflect.DeepEqual(got, exp) {
			t.Fatalf("seed %d step %d: delta-edit Result differs from from-scratch\n got: %+v\nwant: %+v\nedit: +%v -%v",
				seed, step, got, exp, edit.AddedSigma, edit.RemovedSigma)
		}
	}
	return carried, dropped
}

// TestEditScriptDifferential replays randomized Σ edit scripts in the
// infinite-domain setting.
func TestEditScriptDifferential(t *testing.T) {
	seeds := int64(6)
	if testing.Short() {
		seeds = 2
	}
	var carried, dropped int64
	for seed := int64(0); seed < seeds; seed++ {
		c, d := runEditScript(t, seed, Options{WantCounterexample: true}, false)
		carried += c
		dropped += d
	}
	if carried == 0 {
		t.Fatal("no memo entry was ever carried across an edit; the carryover path was never exercised")
	}
	if dropped == 0 {
		t.Fatal("no memo entry was ever dropped by an edit; the invalidation path was never exercised")
	}
}

// TestEditScriptDifferentialGeneral replays edit scripts in the general
// (finite-domain) setting, where carried verdicts include factorised
// enumeration counts.
func TestEditScriptDifferentialGeneral(t *testing.T) {
	seeds := int64(4)
	if testing.Short() {
		seeds = 1
	}
	var carried int64
	for seed := int64(100); seed < 100+seeds; seed++ {
		c, _ := runEditScript(t, seed, Options{General: true, WantCounterexample: true}, false)
		carried += c
	}
	if carried == 0 {
		t.Fatal("general-setting carryover was never exercised")
	}
}

// TestEditScriptViewEdits interleaves view-clause removals/restores with Σ
// edits: dropped clauses invalidate their entries, restored clauses rebuild
// them, and Results always match a from-scratch check against the current
// view.
func TestEditScriptViewEdits(t *testing.T) {
	for seed := int64(200); seed < 204; seed++ {
		runEditScript(t, seed, Options{WantCounterexample: true}, true)
	}
}

// TestMigrateKeepsOldMemoIntact: Migrate must not mutate the source memo —
// daemon requests keep using it mid-PATCH.
func TestMigrateKeepsOldMemoIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db, view, pool, phis := editScriptWorkload(rng, false)
	memo := NewMemo()
	sigma := pool[:6]
	if _, err := Check(db, view, sigma, phis[0], Options{Memo: memo}); err != nil {
		t.Fatal(err)
	}
	before := memo.Stats()
	if before.Pairs == 0 {
		t.Fatal("no pair entries stored")
	}
	_, cs := memo.Migrate(view, DiffSigma(sigma, sigma[1:]))
	after := memo.Stats()
	if after.Pairs != before.Pairs || after.Disjuncts != before.Disjuncts {
		t.Fatalf("Migrate mutated the source memo: %+v -> %+v", before, after)
	}
	if cs.PairsCarried+cs.PairsDropped != int64(before.Pairs) {
		t.Fatalf("carry stats do not partition the pairs: %+v vs %d", cs, before.Pairs)
	}
}

// FuzzEditScript drives the same delta-vs-scratch comparison from fuzzed
// edit scripts: each input byte is one op (add CFD i / remove position i /
// check φ j at parallelism p).
func FuzzEditScript(f *testing.F) {
	f.Add([]byte{0x00, 0x41, 0x12, 0x83, 0x24, 0xc5})
	f.Add([]byte{0x10, 0x90, 0x10, 0x90, 0x55})
	f.Add([]byte{0xff, 0x7e, 0x3d, 0x01, 0x82, 0x44, 0x26})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 32 {
			script = script[:32]
		}
		rng := rand.New(rand.NewSource(11))
		db, view, pool, phis := editScriptWorkload(rng, false)
		if len(phis) == 0 {
			t.Skip("workload produced no φ")
		}
		memo := NewMemo()
		var sigma []*cfd.CFD
		for _, op := range script {
			prev := append([]*cfd.CFD(nil), sigma...)
			switch op >> 6 {
			case 0, 1: // add
				sigma = append(sigma, pool[int(op&0x3f)%len(pool)])
			case 2: // remove
				if len(sigma) > 0 {
					i := int(op&0x3f) % len(sigma)
					sigma = append(sigma[:i:i], sigma[i+1:]...)
				}
			case 3: // no Σ change: checks still replay carried entries
			}
			memo, _ = memo.Migrate(view, DiffSigma(prev, sigma))
			phi := phis[int(op>>3)%len(phis)]
			par := []int{1, 4, 8}[int(op)%3]
			got, err := Check(db, view, sigma, phi, Options{Memo: memo, WantCounterexample: true, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			want, err := Check(db, view, sigma, phi, Options{Memo: NewMemo(), WantCounterexample: true})
			if err != nil {
				t.Fatal(err)
			}
			if g, w := stripMemoCounters(got), stripMemoCounters(want); !reflect.DeepEqual(g, w) {
				t.Fatalf("delta Result differs from scratch after op %#x\n got: %+v\nwant: %+v", op, g, w)
			}
		}
	})
}
