package core

import (
	"math/rand"
	"testing"

	"cfdprop/internal/algebra"
	"cfdprop/internal/cfd"
	"cfdprop/internal/gen"
	"cfdprop/internal/rel"
)

// coverString canonicalizes a cover for exact comparison: PropCFDSPC's
// output order must not depend on the parallelism level.
func coverString(cover []*cfd.CFD) string {
	s := ""
	for _, c := range cover {
		s += c.String() + "\n"
	}
	return s
}

// TestPropCFDSPCDeterministicAcrossParallelism runs the full Fig. 2
// pipeline — per-relation pre-MinCover, the serial lines 2-12, final
// MinCover — at Parallelism 1, 4 and 8 over randomized §5 workloads and
// requires byte-identical covers.
func TestPropCFDSPCDeterministicAcrossParallelism(t *testing.T) {
	trials := 4
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(300 + trial)))
		db := gen.Schema(rng, gen.SchemaParams{NumRelations: 4, MinAttrs: 6, MaxAttrs: 9})
		sigma := gen.CFDs(rng, db, gen.CFDParams{Num: 80, LHSMin: 2, LHSMax: 4, VarPct: 50})
		view := gen.View(rng, db, "V", gen.ViewParams{Y: 8, F: 4, Ec: 3})

		var want *Result
		var wantStr string
		for _, par := range []int{1, 4, 8} {
			res, err := PropCFDSPC(db, view, sigma, Options{Parallelism: par})
			if err != nil {
				t.Fatalf("trial %d parallelism %d: %v", trial, par, err)
			}
			if want == nil {
				want = res
				wantStr = coverString(res.Cover)
				continue
			}
			if got := coverString(res.Cover); got != wantStr ||
				res.AlwaysEmpty != want.AlwaysEmpty || res.Truncated != want.Truncated {
				t.Fatalf("trial %d: parallelism %d diverged\n got: %s\nwant: %s", trial, par, got, wantStr)
			}
		}
	}
}

// TestPropCFDSPCUDeterministicAcrossParallelism covers the union pipeline,
// whose candidate filtering runs the §3 parallel decision procedure.
func TestPropCFDSPCUDeterministicAcrossParallelism(t *testing.T) {
	attrs := []string{"A", "B", "C", "D"}
	db := rel.MustDBSchema(rel.InfiniteSchema("S", attrs...))
	mk := func(sel string) *algebra.SPC {
		q := &algebra.SPC{
			Name:       "V",
			Atoms:      []algebra.RelAtom{{Source: "S", Attrs: attrs}},
			Projection: attrs,
		}
		if sel != "" {
			q.Selection = []algebra.EqAtom{{Left: "D", IsConst: true, Right: sel}}
		}
		return q
	}
	view, err := algebra.NewSPCU("V", mk("1"), mk("2"), mk(""))
	if err != nil {
		t.Fatal(err)
	}
	sigma := []*cfd.CFD{
		cfd.MustParse(`S(A -> B)`),
		cfd.MustParse(`S([D=1, B] -> [C])`),
		cfd.MustParse(`S(B -> C)`),
	}
	var wantStr string
	for _, par := range []int{1, 4, 8} {
		res, err := PropCFDSPCU(db, view, sigma, Options{Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if wantStr == "" {
			wantStr = coverString(res.Cover)
			if wantStr == "" {
				t.Fatal("degenerate workload: empty union cover")
			}
			continue
		}
		if got := coverString(res.Cover); got != wantStr {
			t.Fatalf("parallelism %d diverged\n got: %s\nwant: %s", par, got, wantStr)
		}
	}
}

// TestLemma45PairGuards pins the always-empty path: a validated view
// yields the conflicting pair on its first projected attribute, and the
// synthesis helper must tolerate an empty projection (defensive guard —
// Validate rejects such views, but the helper must not panic if reached
// through an unvalidated path).
func TestLemma45PairGuards(t *testing.T) {
	if got := lemma45Pair(&algebra.SPC{Name: "V"}); got != nil {
		t.Fatalf("empty projection must yield no pair, got %v", got)
	}

	// Inconsistent EQ with a minimal single-attribute projection: the
	// selection constant clashes with the source constant CFD.
	db := rel.MustDBSchema(rel.InfiniteSchema("S", "A", "B"))
	view := &algebra.SPC{
		Name:       "V",
		Atoms:      []algebra.RelAtom{{Source: "S", Attrs: []string{"A", "B"}}},
		Selection:  []algebra.EqAtom{{Left: "B", IsConst: true, Right: "x"}},
		Projection: []string{"A"},
	}
	sigma := []*cfd.CFD{cfd.MustParse(`S([A] -> [B=y])`)}
	for _, par := range []int{1, 4} {
		res, err := PropCFDSPC(db, view, sigma, Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AlwaysEmpty {
			t.Fatal("view must be always empty")
		}
		if len(res.Cover) != 2 {
			t.Fatalf("want the Lemma 4.5 pair, got %v", res.Cover)
		}
		for _, c := range res.Cover {
			if attr, _, ok := c.IsConstant(); !ok || attr != "A" {
				t.Fatalf("pair must be constant CFDs on the projected attribute A, got %s", c)
			}
		}
	}
}
