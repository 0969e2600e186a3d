package implication

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"cfdprop/internal/cfd"
	"cfdprop/internal/chase"
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

// TestSessionResetAfterBudgetExhaustion: a chase-step budget that runs dry
// mid-MinCover surfaces chase.ErrStepBudget, and Reset (which clears the
// budget along with the context) returns the session to a state whose
// MinCover matches a fresh session exactly — no residue from the aborted
// redundancy walk.
func TestSessionResetAfterBudgetExhaustion(t *testing.T) {
	u, _, _, _ := controlWorkload(t)
	// Constant patterns keep the query off the FD-closure fast path (which
	// never draws chase steps), so the budget actually meters work.
	sigma := []*cfd.CFD{
		cfd.MustParse("V([A=1] -> [B=2])"),
		cfd.MustParse("V([B=2] -> [C=3])"),
		cfd.MustParse("V([C=3] -> [D=4])"),
	}
	work := append([]*cfd.CFD{cfd.MustParse("V([A=1] -> [C=3])"), cfd.MustParse("V([A=1] -> [D=4])")}, sigma...)

	want, err := NewSession(u).MinCover(work)
	if err != nil {
		t.Fatal(err)
	}

	s := NewSession(u)
	var budget atomic.Int64
	budget.Store(1) // enough to start, never enough to finish
	s.SetBudget(&budget)
	if _, err := s.MinCover(work); !errors.Is(err, chase.ErrStepBudget) {
		t.Fatalf("MinCover with 1-step budget = %v, want chase.ErrStepBudget", err)
	}

	s.Reset()
	got, err := s.MinCover(work)
	if err != nil {
		t.Fatalf("MinCover after Reset: %v", err)
	}
	if coverString(got) != coverString(want) {
		t.Fatalf("post-Reset cover diverged from fresh session\n got: %v\nwant: %v", got, want)
	}
}

// TestSessionResetAfterGeneralBudgetStopThenEdit: a chase-step budget that
// runs dry inside Implies' worklist chase surfaces chase.ErrStepBudget
// mid-query; Reset followed by SetSigma with an edited Σ (one CFD removed,
// one added) must leave a session that answers Implies exactly like one
// freshly compiled with the edited Σ — the aborted chase leaves no residue
// in the pooled chase state or buffers the recompile reuses.
func TestSessionResetAfterGeneralBudgetStopThenEdit(t *testing.T) {
	stops := 0
	for seed := int64(0); seed < 8; seed++ {
		uni, sigma, phis := diffWorkload(seed, 50)
		cur := cfd.NormalizeAll(sigma)
		sess := NewSession(uni)
		if err := sess.SetSigma(cur); err != nil {
			t.Fatalf("seed %d: SetSigma: %v", seed, err)
		}

		// Exhaust a 1-step budget mid-chase: enough to start a chase, never
		// enough to finish one.
		var budget atomic.Int64
		budget.Store(1)
		sess.SetBudget(&budget)
		for _, phi := range phis {
			if _, err := sess.Implies(phi); errors.Is(err, chase.ErrStepBudget) {
				stops++
				break
			}
		}

		sess.Reset()
		cur = append(cfd.NormalizeAll([]*cfd.CFD{phis[0]}), cur[1:]...)
		if err := sess.SetSigma(cur); err != nil {
			t.Fatalf("seed %d: SetSigma of the edited Σ: %v", seed, err)
		}

		fresh := NewSession(uni)
		if err := fresh.SetSigma(cur); err != nil {
			t.Fatalf("seed %d: fresh SetSigma: %v", seed, err)
		}
		for i, phi := range phis {
			want, wantErr := fresh.Implies(phi)
			got, gotErr := sess.Implies(phi)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("seed %d phi %d (%s): fresh err %v, edited err %v", seed, i, phi, wantErr, gotErr)
			}
			if wantErr != nil {
				if wantErr.Error() != gotErr.Error() {
					t.Fatalf("seed %d phi %d: error mismatch %q vs %q", seed, i, wantErr, gotErr)
				}
				continue
			}
			if want != got {
				t.Fatalf("seed %d phi %d (%s): fresh %v, edited %v\nΣ = %v", seed, i, phi, want, got, cur)
			}
		}
	}
	if stops == 0 {
		t.Fatal("no seed exhausted the step budget; the recovery path was never exercised")
	}
}
