package propagation_test

import (
	"testing"

	"cfdprop/internal/algebra"
	"cfdprop/internal/bench"
	"cfdprop/internal/cfd"
	"cfdprop/internal/propagation"
	"cfdprop/internal/rel"
)

// exactSteps is the smallest MaxChaseSteps that lets a check complete at
// Parallelism 1: the number of chase worklist pops the check takes.
func exactSteps(t *testing.T, db *rel.DBSchema, view *algebra.SPCU, sigma []*cfd.CFD, phi *cfd.CFD, general bool) int64 {
	t.Helper()
	completes := func(steps int64) bool {
		r, err := propagation.Check(db, view, sigma, phi, propagation.Options{General: general, Parallelism: 1, MaxChaseSteps: steps})
		if err != nil {
			t.Fatal(err)
		}
		return r.Stopped == propagation.StopNone
	}
	lo, hi := int64(1), int64(1)
	for !completes(hi) {
		lo, hi = hi+1, 2*hi
	}
	for lo < hi {
		if m := (lo + hi) / 2; completes(m) {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return hi
}

// TestChaseStepsPinned pins the exact chase step counts of a few checks.
// A budgeted partial Result depends on the order in which the chase pops
// dependencies, and TestChaseBudgetDeterministic only compares a run with
// itself, so these counts guard that order: in the infinite-domain setting
// on a union view (Run), and in the general setting (RunPrefix, then
// Extend per assignment).
func TestChaseStepsPinned(t *testing.T) {
	db, view, sigma, phiYes, phiNo := propagation.ChainUnionWorkload(t)
	// Reversed, each firing of the chain re-enqueues the next link.
	reversed := make([]*cfd.CFD, len(sigma))
	for i, c := range sigma {
		reversed[len(sigma)-1-i] = c
	}
	genDB, genView, genSigma, genPhi := bench.GeneralInstWorkload(1, 3, 3)
	gen2DB, gen2View, gen2Sigma, gen2Phi := bench.GeneralInstWorkload(2, 3, 3)
	cases := []struct {
		name    string
		db      *rel.DBSchema
		view    *algebra.SPCU
		sigma   []*cfd.CFD
		phi     *cfd.CFD
		general bool
		want    int64
	}{
		{"chain/propagated", db, view, sigma, phiYes, false, 24},
		{"chain/refuted", db, view, sigma, phiNo, false, 4},
		{"chain/equality", db, view, sigma, cfd.NewEquality("V", "A1", "A2"), false, 4},
		{"chain/reversed", db, view, reversed, cfd.MustParse("V(A1 -> A5)"), false, 42},
		{"general/seed1", genDB, genView, genSigma, genPhi, true, 624},
		{"general/seed1/finite-lhs", genDB, genView, genSigma, cfd.MustParse("V([F3, A1] -> [A3])"), true, 504},
		{"general/seed1/refuted", genDB, genView, genSigma, cfd.MustParse("V([F1, A8] -> [A2])"), true, 239},
		{"general/seed2", gen2DB, gen2View, gen2Sigma, gen2Phi, true, 621},
	}
	for _, c := range cases {
		if got := exactSteps(t, c.db, c.view, c.sigma, c.phi, c.general); got != c.want {
			t.Errorf("%s: %s takes %d chase steps, want %d", c.name, c.phi, got, c.want)
		}
	}
}
