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
		u, reduced, dropAttrs, ok := rbrInput(t, db, view, sigma, true)
		if !ok {
			continue
		}
		fewest, _, err := runRBR(u, reduced, dropAttrs, rbrConfig{order: dropFewestOccurrences, blockSize: rbrBlockSize})
		if err != nil {
			t.Fatal(err)
		}
		sequential, _, err := runRBR(u, reduced, dropAttrs, rbrConfig{order: dropSequential, blockSize: rbrBlockSize})
		if err != nil {
			t.Fatal(err)
		}
		eq, err := implication.Equivalent(u, fewest, sequential)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Errorf("trial %d: RBR outputs differ across drop orders:\nfewest:     %v\nsequential: %v", trial, fewest, sequential)
		}
	}
}

// TestBlockPruningPreservesCover: disabling the §4.3 block pruning must
// not change RBR's output up to equivalence. The specs are dense, so the
// prune fires at block size 4.
func TestBlockPruningPreservesCover(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 40; trial++ {
		db, view, sigma := denseSpec(rng)
		u, reduced, dropAttrs, ok := rbrInput(t, db, view, sigma, false)
		if !ok {
			continue
		}
		pruned, _, err := runRBR(u, reduced, dropAttrs, rbrConfig{blockSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		plain, _, err := runRBR(u, reduced, dropAttrs, rbrConfig{blockSize: -1})
		if err != nil {
			t.Fatal(err)
		}
		eq, err := implication.Equivalent(u, pruned, plain)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Errorf("trial %d: pruning changed RBR's output:\nwith:    %v\nwithout: %v", trial, pruned, plain)
		}
	}
}

// BenchmarkAblationRBRPrune times RBR (Fig. 2 line 11) serially with and
// without the §4.3 block prune, over two families of inputs. dense: 20
// one-relation specs of 60 dense CFDs (LHS 1–2, var% 90) with line 1
// skipped, whose resolvents are largely redundant, so the prune keeps Γ
// small. grid: the Fig. 8 |Ec| 8–10 cells behind line 1, where the prune
// sheds little and costs its MinCover calls.
func BenchmarkAblationRBRPrune(b *testing.B) {
	type input struct {
		u         implication.Universe
		gamma     []*cfd.CFD
		dropAttrs []string
	}
	var dense, grid []input
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := gen.Schema(rng, gen.SchemaParams{NumRelations: 1, MinAttrs: 14, MaxAttrs: 14})
		sigma := gen.CFDs(rng, db, gen.CFDParams{Num: 60, LHSMin: 1, LHSMax: 2, VarPct: 90})
		view := gen.View(rng, db, "V", gen.ViewParams{Y: 3, F: 1, Ec: 2})
		if u, reduced, dropAttrs, ok := rbrInput(b, db, view, sigma, false); ok {
			dense = append(dense, input{u, reduced, dropAttrs})
		}
	}
	for ec := 8; ec <= 10; ec++ {
		_, db, view, sigma := fig8Cell(ec)
		if u, reduced, dropAttrs, ok := rbrInput(b, db, view, sigma, true); ok {
			grid = append(grid, input{u, reduced, dropAttrs})
		}
	}
	for _, family := range []struct {
		name   string
		inputs []input
	}{{"dense", dense}, {"grid", grid}} {
		for _, block := range []int{-1, rbrBlockSize} {
			name := family.name + "/prune=off"
			if block > 0 {
				name = fmt.Sprintf("%s/prune=%d", family.name, block)
			}
			b.Run(name, func(b *testing.B) {
				cfg := rbrConfig{blockSize: block, parallelism: 1}
				for i := 0; i < b.N; i++ {
					for _, in := range family.inputs {
						if _, _, err := runRBR(in.u, in.gamma, in.dropAttrs, cfg); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
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
func rescanRBR(u implication.Universe, gamma []*cfd.CFD, dropAttrs []string, cfg rbrConfig) ([]*cfd.CFD, bool, error) {
	gamma = cfd.Dedup(gamma)
	remaining := append([]string(nil), dropAttrs...)
	sessions := make([]*implication.Session, max(cfg.parallelism, 1))
	ctx := context.Background()
	truncated := false
	sinceLastPrune := 0
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
		before := len(gamma)
		gamma = drop(gamma, a, truncate)
		if grew := len(gamma) - before; grew > 0 {
			sinceLastPrune += grew
		}
		if cfg.blockSize > 0 && sinceLastPrune >= cfg.blockSize && len(gamma) > cfg.blockSize {
			pruned, err := blockMinCover(ctx, u, sessions, gamma, cfg.blockSize)
			if err != nil {
				return nil, false, err
			}
			gamma = cfd.Dedup(pruned)
			sinceLastPrune = 0
		}
	}
	return gamma, truncated, nil
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

// fig8Cell draws the Fig. 8 grid cell with |Ec| = ec as perfbench's cover
// workload draws it at pool seed 1, and returns its name.
func fig8Cell(ec int) (string, *rel.DBSchema, *algebra.SPC, []*cfd.CFD) {
	pct := 40 + 10*(ec%2)
	name := fmt.Sprintf("fig8/|Sigma|=2000/Y=25/F=10/Ec=%d/var=%d", ec, pct)
	h := fnv.New32a()
	h.Write([]byte(name))
	rng := rand.New(rand.NewSource(1 ^ int64(h.Sum32())*31))
	db := gen.Schema(rng, gen.SchemaParams{})
	sigma := gen.CFDs(rng, db, gen.CFDParams{Num: 2000, LHSMin: 3, LHSMax: 9, VarPct: pct})
	view := gen.View(rng, db, "V", gen.ViewParams{Y: 25, F: 10, Ec: ec})
	return name, db, view, sigma
}

// denseSpec draws a small dense spec: one relation of 5–6 attributes,
// 20–49 CFDs with LHS 1–2 and var% 80–99, and a view over it. With line 1
// skipped, resolution grows RBR's Γ, so block prunes fire.
func denseSpec(rng *rand.Rand) (*rel.DBSchema, *algebra.SPC, []*cfd.CFD) {
	db := gen.Schema(rng, gen.SchemaParams{NumRelations: 1, MinAttrs: 5, MaxAttrs: 6})
	sigma := gen.CFDs(rng, db, gen.CFDParams{Num: 20 + rng.Intn(30), LHSMin: 1, LHSMax: 2, VarPct: 80 + rng.Intn(20)})
	view := gen.View(rng, db, "V", gen.ViewParams{Y: 2 + rng.Intn(3), F: rng.Intn(3), Ec: 1 + rng.Intn(2)})
	return db, view, sigma
}

// rbrInput returns what propSPCTail hands RBR for (db, view, Σ): the
// workspace universe, the domain-reduced view CFDs and the attributes to
// eliminate. Σ is covered per relation first (Fig. 2 line 1) when line1 is
// set, and passed through as SkipPreMinCover passes it otherwise. ok is
// false when EQ is inconsistent, where RBR does not run.
func rbrInput(t testing.TB, db *rel.DBSchema, view *algebra.SPC, sigma []*cfd.CFD, line1 bool) (u implication.Universe, reduced []*cfd.CFD, dropAttrs []string, ok bool) {
	t.Helper()
	sigma = cfd.NormalizeAll(sigma)
	if line1 {
		var err error
		if sigma, err = minCoverPerRelation(context.Background(), db, sigma, 1); err != nil {
			t.Fatal(err)
		}
	}
	sigmaV, err := renameToView(db, view, sigma)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := ComputeEQ(view, sigmaV)
	if err != nil {
		t.Fatal(err)
	}
	if eq.Inconsistent {
		return u, nil, nil, false
	}
	reduced, dropAttrs = reduceByEQ(view, eq, sigmaV)
	return workspaceUniverse(db, view), reduced, dropAttrs, true
}

// checkRBR runs runRBR and rescanRBR on one input and requires the same
// members in the same order and the same Truncated flag. It returns the
// flag.
func checkRBR(t *testing.T, name string, u implication.Universe, gamma []*cfd.CFD, dropAttrs []string, cfg rbrConfig) bool {
	t.Helper()
	got, gotTrunc, err := runRBR(u, gamma, dropAttrs, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, wantTrunc, err := rescanRBR(u, gamma, dropAttrs, cfg)
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	if gotTrunc != wantTrunc {
		t.Errorf("%s: truncated %t, oracle %t", name, gotTrunc, wantTrunc)
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d CFDs, oracle %d", name, len(got), len(want))
		return gotTrunc
	}
	for i := range got {
		if got[i].String() != want[i].String() {
			t.Errorf("%s: member %d is %s, oracle %s", name, i, got[i], want[i])
			return gotTrunc
		}
	}
	return gotTrunc
}

// TestRBRMatchesRescan checks the occurrence-indexed RBR against the
// rescan oracle, member by member and in order, plus Truncated. The inputs
// are the RBR inputs of the Fig. 8 |Ec| 8–10 grid cells, drawn as
// perfbench's cover workload draws them at pool seed 1, at the default
// options; and those of seeded small specs under both drop orders, block
// sizes {-1, 4, 8, 64} and MaxCoverSize 0 or the deduplicated input size,
// and once with nothing to drop, where RBR only deduplicates.
// The small specs are dense (one relation of 5–6 attributes, 20–49 CFDs
// with LHS 1–2, var% 80–99) and skip line 1, so that resolution grows Γ:
// block prunes then fire, and the bound truncates after Γ has grown past
// its input.
func TestRBRMatchesRescan(t *testing.T) {
	for ec := 8; ec <= 10; ec++ {
		name, db, view, sigma := fig8Cell(ec)
		u, reduced, dropAttrs, ok := rbrInput(t, db, view, sigma, true)
		if !ok || len(dropAttrs) == 0 {
			t.Fatalf("%s: RBR does not run", name)
		}
		checkRBR(t, name, u, reduced, dropAttrs, rbrConfig{blockSize: rbrBlockSize, parallelism: optParallelism(Options{})})
	}

	specs := 200
	if testing.Short() {
		specs = 50
	}
	rng := rand.New(rand.NewSource(64))
	runs, truncated := 0, 0
	for s := 0; s < specs; s++ {
		db, view, sigma := denseSpec(rng)
		u, reduced, dropAttrs, ok := rbrInput(t, db, view, sigma, false)
		if !ok {
			continue
		}
		checkRBR(t, fmt.Sprintf("spec %d, nothing to drop", s), u, reduced, nil, rbrConfig{blockSize: rbrBlockSize})
		for _, order := range []dropOrder{dropFewestOccurrences, dropSequential} {
			for _, block := range []int{-1, 4, 8, 64} {
				for _, maxCover := range []int{0, len(cfd.Dedup(reduced))} {
					name := fmt.Sprintf("spec %d order %d block %d maxCover %d", s, order, block, maxCover)
					cfg := rbrConfig{order: order, blockSize: block, maxCover: maxCover, parallelism: 2}
					if checkRBR(t, name, u, reduced, dropAttrs, cfg) {
						truncated++
					}
					runs++
				}
			}
		}
	}
	t.Logf("%d small-spec runs, %d truncated", runs, truncated)
	if truncated == 0 {
		t.Error("no small-spec run truncated")
	}
}
