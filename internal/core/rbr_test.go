package core

import (
	"fmt"
	"math/rand"
	"testing"

	"cfdprop/internal/algebra"
	"cfdprop/internal/cfd"
	"cfdprop/internal/gen"
	"cfdprop/internal/implication"
	"cfdprop/internal/rel"
)

// TestDropOrderIndependence checks Proposition 4.4's order-independence:
// RBR yields equivalent covers no matter which elimination order is used
// (the orders may differ syntactically but must imply each other).
func TestDropOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		db := gen.Schema(rng, gen.SchemaParams{NumRelations: 3, MinAttrs: 4, MaxAttrs: 5})
		sigma := gen.CFDs(rng, db, gen.CFDParams{Num: 8, LHSMin: 1, LHSMax: 2, VarPct: 60})
		view := gen.View(rng, db, "V", gen.ViewParams{Y: 4, F: 2, Ec: 2})
		r, ok := rbrInput(t, db, view, sigma, true)
		if !ok {
			continue
		}
		var outs [2][]*cfd.CFD
		for k, order := range []dropOrder{dropFewestOccurrences, dropSequential} {
			g := r.reduce()
			if _, err := runRBR(g, r.tv.drops, rbrConfig{order: order}); err != nil {
				t.Fatal(err)
			}
			outs[k] = r.cfds(g)
		}
		eq, err := implication.Equivalent(implication.UniverseOf(r.tv.viewSchema), outs[0], outs[1])
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Errorf("trial %d: RBR outputs differ across drop orders:\nfewest:     %v\nsequential: %v", trial, outs[0], outs[1])
		}
	}
}

// TestSkipPreMinCoverPreservesCover: Fig. 2 line 1 is an optimization, not
// a semantic step.
func TestSkipPreMinCoverPreservesCover(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 8; trial++ {
		db := gen.Schema(rng, gen.SchemaParams{NumRelations: 3, MinAttrs: 4, MaxAttrs: 5})
		sigma := gen.CFDs(rng, db, gen.CFDParams{Num: 8, LHSMin: 1, LHSMax: 2, VarPct: 60})
		view := gen.View(rng, db, "V", gen.ViewParams{Y: 4, F: 2, Ec: 2})

		with, err := PropCFDSPC(db, view, sigma, Options{})
		if err != nil {
			t.Fatal(err)
		}
		without, err := PropCFDSPC(db, view, sigma, Options{SkipPreMinCover: true})
		if err != nil {
			t.Fatal(err)
		}
		u := implication.UniverseOf(with.ViewSchema)
		eq, err := implication.Equivalent(u, with.Cover, without.Cover)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Errorf("trial %d: pre-MinCover changed the cover semantics", trial)
		}
	}
}

// rescanRBR is RBR without the occurrence index, the oracle runRBR is
// compared with: each round counts occurrences over all of Γ, and each
// elimination rescans Γ for the CFDs that mention the attribute and
// re-keys all of it through cfd.Dedup.
func rescanRBR(gamma []*cfd.CFD, dropAttrs []string, cfg rbrConfig) ([]*cfd.CFD, bool) {
	gamma = cfd.Dedup(gamma)
	remaining := append([]string(nil), dropAttrs...)
	truncated := false
	for len(remaining) > 0 {
		next := 0
		if cfg.order == dropFewestOccurrences {
			counts := occurrenceCounts(gamma, remaining)
			for i := 1; i < len(remaining); i++ {
				if counts[remaining[i]] < counts[remaining[next]] ||
					(counts[remaining[i]] == counts[remaining[next]] && remaining[i] < remaining[next]) {
					next = i
				}
			}
		}
		a := remaining[next]
		remaining = append(remaining[:next], remaining[next+1:]...)
		truncate := cfg.maxCover > 0 && len(gamma) > cfg.maxCover
		if truncate {
			truncated = true
		}
		gamma = drop(gamma, a, truncate)
	}
	return gamma, truncated
}

// drop eliminates attribute a from Γ by a rescan: Drop(Γ, a) = Res(Γ, a) ∪
// Γ[U − {a}]. When truncate is true no new resolvents are added.
func drop(gamma []*cfd.CFD, a string, truncate bool) []*cfd.CFD {
	var producers, consumers, keep []*cfd.CFD
	for _, c := range gamma {
		mentions := c.Mentions(a)
		if !mentions {
			keep = append(keep, c)
			continue
		}
		if !c.Equality && c.RHS[0].Attr == a {
			producers = append(producers, c)
		}
		if !c.Equality {
			if _, onLHS := c.LHSItem(a); onLHS {
				consumers = append(consumers, c)
			}
		}
	}
	if !truncate {
		for _, p := range producers {
			for _, q := range consumers {
				if r := mapResolvent(p, q, a); r != nil {
					keep = append(keep, r)
				}
			}
		}
	}
	return cfd.Dedup(keep)
}

// occurrenceCounts counts, for each candidate attribute, the items of Γ
// that name it: a CFD naming it on both sides counts twice.
func occurrenceCounts(gamma []*cfd.CFD, candidates []string) map[string]int {
	want := make(map[string]bool, len(candidates))
	for _, a := range candidates {
		want[a] = true
	}
	counts := make(map[string]int, len(candidates))
	for _, c := range gamma {
		for _, it := range c.LHS {
			if want[it.Attr] {
				counts[it.Attr]++
			}
		}
		for _, it := range c.RHS {
			if want[it.Attr] {
				counts[it.Attr]++
			}
		}
	}
	return counts
}

// mapResolvent is resolvent with W and Z merged through a per-call map.
func mapResolvent(phi1, phi2 *cfd.CFD, a string) *cfd.CFD {
	t1A := phi1.RHS[0].Pat
	var t2A cfd.Pattern
	found := false
	for _, it := range phi2.LHS {
		if it.Attr == a {
			t2A = it.Pat
			found = true
			break
		}
	}
	if !found || !t1A.LE(t2A) {
		return nil
	}
	merged := map[string]cfd.Pattern{}
	var order []string
	add := func(attr string, p cfd.Pattern) bool {
		if attr == a {
			return false // resolvent must not mention A
		}
		q, seen := merged[attr]
		if !seen {
			merged[attr] = p
			order = append(order, attr)
			return true
		}
		m, ok := cfd.Min(p, q)
		if !ok {
			return false // ⊕ undefined
		}
		merged[attr] = m
		return true
	}
	for _, it := range phi1.LHS {
		if !add(it.Attr, it.Pat) {
			return nil
		}
	}
	for _, it := range phi2.LHS {
		if it.Attr == a {
			continue
		}
		if !add(it.Attr, it.Pat) {
			return nil
		}
	}
	b := phi2.RHS[0]
	if b.Attr == a {
		return nil
	}
	lhs := make([]cfd.Item, 0, len(order))
	for _, attr := range order {
		lhs = append(lhs, cfd.Item{Attr: attr, Pat: merged[attr]})
	}
	out := &cfd.CFD{Relation: phi2.Relation, LHS: lhs, RHS: []cfd.Item{b}}
	if out.IsTrivial() {
		return nil
	}
	return out
}

// denseSpec draws a small dense spec: one relation of 5–6 attributes,
// 20–49 CFDs with LHS 1–2 and var% 80–99, and a view over it. With line 1
// skipped, resolution grows RBR's Γ.
func denseSpec(rng *rand.Rand) (*rel.DBSchema, *algebra.SPC, []*cfd.CFD) {
	db := gen.Schema(rng, gen.SchemaParams{NumRelations: 1, MinAttrs: 5, MaxAttrs: 6})
	sigma := gen.CFDs(rng, db, gen.CFDParams{Num: 20 + rng.Intn(30), LHSMin: 1, LHSMax: 2, VarPct: 80 + rng.Intn(20)})
	view := gen.View(rng, db, "V", gen.ViewParams{Y: 2 + rng.Intn(3), F: rng.Intn(3), Ec: 1 + rng.Intn(2)})
	return db, view, sigma
}

// rbrInput compiles (db, view, Σ) for RBR: Σ is covered per relation first
// (Fig. 2 line 1) when line1 is set, and passed through as SkipPreMinCover
// passes it otherwise, then lines 5-6 and 2 run. Each reduce call on the
// result returns a fresh Γ, the input of line 11. ok is false when EQ is
// inconsistent, where RBR does not run.
func rbrInput(t testing.TB, db *rel.DBSchema, view *algebra.SPC, sigma []*cfd.CFD, line1on bool) (r *tailRun, ok bool) {
	t.Helper()
	r, err := compileTail(t, db, view).compile(line1(t, db, sigma, !line1on))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.computeEQ(); err != nil {
		t.Fatal(err)
	}
	return r, !r.eq.inconsistent
}

// checkRBR runs runRBR on Γ and rescanRBR on its members and requires the
// same members in the same order and the same Truncated flag. It returns
// the flag.
func checkRBR(t *testing.T, name string, r *tailRun, drops []int32, cfg rbrConfig) bool {
	t.Helper()
	g := r.reduce()
	gamma := r.cfds(g)
	gotTrunc, err := runRBR(g, drops, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got := r.cfds(g)
	dropAttrs := make([]string, len(drops))
	for i, p := range drops {
		dropAttrs[i] = r.tv.names[p]
	}
	want, wantTrunc := rescanRBR(gamma, dropAttrs, cfg)
	if gotTrunc != wantTrunc {
		t.Errorf("%s: truncated %t, oracle %t", name, gotTrunc, wantTrunc)
	}
	if i := firstDiff(got, want); i >= 0 {
		t.Errorf("%s: %d CFDs, oracle %d; they first differ at %d:\n got: %v\nwant: %v", name, len(got), len(want), i, got, want)
	}
	return gotTrunc
}

// TestRBRMatchesRescan checks the occurrence-indexed RBR on compiled items
// against the rescan oracle on names and strings, member by member and in
// order, plus Truncated. The inputs are the RBR inputs of the Fig. 8 |Ec|
// 8–10 grid cells, drawn as perfbench's cover workload draws them at pool
// seed 1, at the default options; and those of seeded small specs under
// both drop orders and MaxCoverSize 0 or Γ's input size, and once with
// nothing to drop, where RBR only deduplicates. The small specs are dense
// (one relation of 5–6 attributes, 20–49 CFDs with LHS 1–2, var% 80–99)
// and skip line 1, so that resolution grows Γ and the bound truncates
// after Γ has grown past its input.
func TestRBRMatchesRescan(t *testing.T) {
	for ec := 8; ec <= 10; ec++ {
		name, db, view, sigma := fig8Cell(ec)
		r, ok := rbrInput(t, db, view, sigma, true)
		if !ok || len(r.tv.drops) == 0 {
			t.Fatalf("%s: RBR does not run", name)
		}
		checkRBR(t, name, r, r.tv.drops, rbrConfig{})
	}

	specs := 200
	if testing.Short() {
		specs = 50
	}
	rng := rand.New(rand.NewSource(64))
	runs, truncated := 0, 0
	for s := 0; s < specs; s++ {
		db, view, sigma := denseSpec(rng)
		r, ok := rbrInput(t, db, view, sigma, false)
		if !ok {
			continue
		}
		checkRBR(t, fmt.Sprintf("spec %d, nothing to drop", s), r, nil, rbrConfig{})
		for _, order := range []dropOrder{dropFewestOccurrences, dropSequential} {
			for _, maxCover := range []int{0, r.reduce().n} {
				name := fmt.Sprintf("spec %d order %d maxCover %d", s, order, maxCover)
				if checkRBR(t, name, r, r.tv.drops, rbrConfig{order: order, maxCover: maxCover}) {
					truncated++
				}
				runs++
			}
		}
	}
	t.Logf("%d small-spec runs, %d truncated", runs, truncated)
	if truncated == 0 {
		t.Error("no small-spec run truncated")
	}
}
