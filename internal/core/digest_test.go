package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"cfdprop/internal/cfd"
	"cfdprop/internal/gen"
	"cfdprop/internal/implication"
)

// gridCoverDigest is the SHA-256 TestGridCoverDigest pins. It was computed
// with the restart left-reduction and the scan-based implication probes,
// so a change to MinCover's probing that moves any cover shows here.
const gridCoverDigest = "2ac69a23a3b8794856dd89678cadedfb9bf911e267a7c0cc81e5a3a0d941ae0c"

// TestGridCoverDigest hashes the covers of five §5-shaped specs: the Fig. 5
// cells with |Σ| 200, 400, 600, 800 and 1000 (LHS 3–9, var% alternating 40
// and 50, 10 relations, |Y| 25, |F| 10, |Ec| 4). Per spec it hashes every
// relation bucket's Session.MinCover (Fig. 2 line 1), then PropCFDSPC at
// Parallelism 1 and 2: the cover strings, AlwaysEmpty and Truncated.
func TestGridCoverDigest(t *testing.T) {
	h := sha256.New()
	line1, viewCFDs := 0, 0
	for i, n := range []int{200, 400, 600, 800, 1000} {
		rng := rand.New(rand.NewSource(int64(n)))
		db := gen.Schema(rng, gen.SchemaParams{})
		sigma := gen.CFDs(rng, db, gen.CFDParams{Num: n, LHSMin: 3, LHSMax: 9, VarPct: 40 + 10*(i%2)})
		view := gen.View(rng, db, "V", gen.ViewParams{Y: 25, F: 10, Ec: 4})

		byRel := make(map[string][]*cfd.CFD)
		var order []string
		for _, c := range sigma {
			if _, seen := byRel[c.Relation]; !seen {
				order = append(order, c.Relation)
			}
			byRel[c.Relation] = append(byRel[c.Relation], c)
		}
		for _, r := range order {
			cover, err := implication.NewSession(implication.UniverseOf(db.Relation(r))).MinCover(byRel[r])
			if err != nil {
				t.Fatal(err)
			}
			line1 += len(cover)
			fmt.Fprintf(h, "|Sigma|=%d line 1 %s\n", n, r)
			hashCFDs(h, cover)
		}
		for _, par := range []int{1, 2} {
			res, err := PropCFDSPC(db, view, sigma, Options{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if !res.AlwaysEmpty {
				viewCFDs += len(res.Cover)
			}
			fmt.Fprintf(h, "|Sigma|=%d par=%d empty=%t truncated=%t\n", n, par, res.AlwaysEmpty, res.Truncated)
			hashCFDs(h, res.Cover)
		}
	}
	t.Logf("%d line-1 CFDs, %d view CFDs", line1, viewCFDs)
	if viewCFDs == 0 {
		t.Fatal("every view cover was empty: the specs degenerated")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != gridCoverDigest {
		t.Fatalf("grid cover digest is %s, want %s: a cover changed", got, gridCoverDigest)
	}
}

func hashCFDs(h hash.Hash, cs []*cfd.CFD) {
	for _, c := range cs {
		fmt.Fprintln(h, c.String())
	}
}
