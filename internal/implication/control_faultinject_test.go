//go:build faultinject

package implication

import (
	"context"
	"errors"
	"testing"

	"cfdprop/internal/cfd"
	"cfdprop/internal/faultinject"
)

// stopAtFiring returns a context that a faultinject rule cancels at the
// nth closure firing from now, so the session's poll right after that
// firing's fault-injection hit stops the query there: a halfway stop at a
// fixed point of the closure.
func stopAtFiring(t *testing.T, n int64) context.Context {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	t.Cleanup(faultinject.Reset)
	faultinject.Install(faultinject.Rule{Site: faultinject.SiteImplicationStep, Nth: n, Act: faultinject.Cancel, Cancel: cancel})
	return ctx
}

// TestSessionResetAfterMidMinCoverStop: a MinCover stopped at its second
// closure firing surfaces the context's error, and Reset (which clears the
// context) returns the session to a state whose MinCover matches a fresh
// session exactly — no residue from the aborted redundancy walk.
func TestSessionResetAfterMidMinCoverStop(t *testing.T) {
	u, _, _, _ := controlWorkload(t)
	// A constant-pattern chain: every probe that derives anything draws
	// closure firings, so the stop lands inside real work.
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
	s.SetContext(stopAtFiring(t, 2)) // enough to start, never enough to finish
	if _, err := s.MinCover(work); !errors.Is(err, context.Canceled) {
		t.Fatalf("MinCover stopped at its second firing = %v, want context.Canceled", err)
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

// TestSessionResetAfterMidImpliesStopThenEdit: a stop inside Implies'
// closure surfaces the context's error mid-query; Reset followed by
// SetSigma with an edited Σ (one CFD removed, one added) must leave a
// session that answers Implies exactly like one freshly compiled with the
// edited Σ — the aborted closure leaves no residue in the counters, facts
// or buffers the recompile reuses.
func TestSessionResetAfterMidImpliesStopThenEdit(t *testing.T) {
	stops := 0
	for seed := int64(0); seed < 8; seed++ {
		uni, sigma, phis := diffWorkload(seed, 50)
		cur := cfd.NormalizeAll(sigma)
		sess := NewSession(uni)
		if err := sess.SetSigma(cur); err != nil {
			t.Fatalf("seed %d: SetSigma: %v", seed, err)
		}

		// Stop at the second firing across the queries: enough to start a
		// closure, never enough to finish one.
		sess.SetContext(stopAtFiring(t, 2))
		for _, phi := range phis {
			if _, err := sess.Implies(phi); errors.Is(err, context.Canceled) {
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
		t.Fatal("no seed stopped mid-closure; the recovery path was never exercised")
	}
}
