package implication

import (
	"context"
	"errors"
	"testing"

	"cfdprop/internal/cfd"
	"cfdprop/internal/rel"
)

func controlWorkload(t *testing.T) (Universe, []*cfd.CFD, *cfd.CFD, *cfd.CFD) {
	t.Helper()
	u := UniverseOf(rel.InfiniteSchema("V", "A", "B", "C", "D"))
	sigma := []*cfd.CFD{
		cfd.MustParse("V(A -> B)"),
		cfd.MustParse("V(B -> C)"),
		cfd.MustParse("V(C -> D)"),
	}
	return u, sigma, cfd.MustParse("V(A -> D)"), cfd.MustParse("V(B -> A)")
}

// TestSessionCancelThenResetReuse: a cancelled context surfaces as the
// context's error from Implies, and Reset returns the session to a fully
// reusable quiescent state — same answers as a fresh session.
func TestSessionCancelThenResetReuse(t *testing.T) {
	u, sigma, phiYes, phiNo := controlWorkload(t)
	s := NewSession(u)
	if err := s.SetSigma(sigma); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.SetContext(ctx)
	if _, err := s.Implies(phiYes); !errors.Is(err, context.Canceled) {
		t.Fatalf("Implies under cancelled context = %v, want context.Canceled", err)
	}
	s.Reset()
	for i := 0; i < 3; i++ { // reuse repeatedly: Reset must not be one-shot
		if ok, err := s.Implies(phiYes); err != nil || !ok {
			t.Fatalf("reuse %d: Implies(%s) = %v, %v; want true", i, phiYes, ok, err)
		}
		if ok, err := s.Implies(phiNo); err != nil || ok {
			t.Fatalf("reuse %d: Implies(%s) = %v, %v; want false", i, phiNo, ok, err)
		}
	}
}

// TestSessionMinCoverCancelled: MinCover under a cancelled context returns
// the context's error rather than a partial cover.
func TestSessionMinCoverCancelled(t *testing.T) {
	u, sigma, _, _ := controlWorkload(t)
	s := NewSession(u)
	if err := s.SetSigma(nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.SetContext(ctx)
	work := append([]*cfd.CFD{cfd.MustParse("V(A -> C)")}, sigma...)
	if _, err := s.MinCover(work); !errors.Is(err, context.Canceled) {
		t.Fatalf("MinCover under cancelled context = %v, want context.Canceled", err)
	}
}
