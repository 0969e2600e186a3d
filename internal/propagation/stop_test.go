package propagation

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"cfdprop/internal/algebra"
	"cfdprop/internal/cfd"
	"cfdprop/internal/rel"
)

// chainUnionWorkload builds the 3-disjunct union view over a chain-FD
// source used by the stop tests: V(A1→A4) propagates, V(A4→A1) does not.
func chainUnionWorkload(t *testing.T) (*rel.DBSchema, *algebra.SPCU, []*cfd.CFD, *cfd.CFD, *cfd.CFD) {
	t.Helper()
	attrs := []string{"A1", "A2", "A3", "A4", "A5"}
	db := rel.MustDBSchema(rel.InfiniteSchema("R1", attrs...))
	var sigma []*cfd.CFD
	for i := 0; i+1 < len(attrs); i++ {
		sigma = append(sigma, cfd.MustParse(fmt.Sprintf("R1(%s -> %s)", attrs[i], attrs[i+1])))
	}
	ds := make([]*algebra.SPC, 3)
	for d := range ds {
		ds[d] = &algebra.SPC{
			Name:       "V",
			Atoms:      []algebra.RelAtom{{Source: "R1", Attrs: attrs}},
			Selection:  []algebra.EqAtom{{Left: "A5", IsConst: true, Right: fmt.Sprintf("%d", d+1)}},
			Projection: attrs,
		}
	}
	view, err := algebra.NewSPCU("V", ds...)
	if err != nil {
		t.Fatal(err)
	}
	return db, view, sigma, cfd.MustParse("V(A1 -> A4)"), cfd.MustParse("V(A4 -> A1)")
}

// bigGeneralWorkload builds a single-pair general-setting query whose two
// tableaux leave 10 unbound finite roots of domain size 4 — a 4^10
// (≈10^6) instantiation space, each assignment running a chase. Far more
// than a millisecond of work, so a deadline must interrupt it.
func bigGeneralWorkload(t *testing.T) (*rel.DBSchema, *algebra.SPCU, []*cfd.CFD, *cfd.CFD) {
	t.Helper()
	const nInf, nFin, domSize = 8, 5, 4
	var attrs []rel.Attribute
	var names []string
	for i := 0; i < nInf; i++ {
		name := fmt.Sprintf("A%d", i+1)
		attrs = append(attrs, rel.Attribute{Name: name, Domain: rel.Infinite()})
		names = append(names, name)
	}
	for i := 0; i < nFin; i++ {
		vals := make([]string, domSize)
		for v := range vals {
			vals[v] = fmt.Sprintf("%d", v)
		}
		name := fmt.Sprintf("F%d", i+1)
		attrs = append(attrs, rel.Attribute{Name: name, Domain: rel.FiniteDomain("d", vals...)})
		names = append(names, name)
	}
	db := rel.MustDBSchema(rel.MustSchema("R1", attrs...))
	var sigma []*cfd.CFD
	for i := 0; i+1 < nInf; i++ {
		sigma = append(sigma, cfd.MustParse(fmt.Sprintf("R1(A%d -> A%d)", i+1, i+2)))
	}
	q := &algebra.SPC{
		Name:       "V",
		Atoms:      []algebra.RelAtom{{Source: "R1", Attrs: names}},
		Projection: names,
	}
	return db, algebra.Single(q), sigma, cfd.MustParse("V(A1 -> A8)")
}

// TestDeadlineStopsPromptly: a 1ms context deadline against a
// 4^10-instantiation general-setting query must return promptly with the
// stop reason set and leak no goroutines.
func TestDeadlineStopsPromptly(t *testing.T) {
	db, view, sigma, phi := bigGeneralWorkload(t)
	baseline := runtime.NumGoroutine()

	for _, par := range []int{1, 4} {
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		res, err := Check(db, view, sigma, phi, Options{
			General: true, Context: ctx, Parallelism: par,
		})
		elapsed := time.Since(start)
		cancel()
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if res.Stopped != StopDeadline {
			t.Fatalf("parallelism %d: Stopped = %s, want %s", par, res.Stopped, StopDeadline)
		}
		if !res.Propagated {
			t.Fatalf("parallelism %d: a stopped run cannot refute", par)
		}
		// "Promptly": far below the seconds this enumeration takes; the
		// generous bound keeps slow CI machines from flaking.
		if elapsed > 5*time.Second {
			t.Fatalf("parallelism %d: stop took %v", par, elapsed)
		}
	}

	// Workers are joined before Check returns; give the runtime a moment
	// to retire exiting goroutines, then compare against the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutine leak: %d before, %d after", baseline, n)
	}
}

// TestPreCancelledContext: a context cancelled before Check starts stops
// the run before any pair is examined.
func TestPreCancelledContext(t *testing.T) {
	db, view, sigma, phiYes, _ := chainUnionWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{1, 4} {
		res, err := Check(db, view, sigma, phiYes, Options{Parallelism: par, Context: ctx})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if res.Stopped != StopCancelled {
			t.Fatalf("parallelism %d: Stopped = %s, want %s", par, res.Stopped, StopCancelled)
		}
		if res.PairsChecked != 0 || res.Instantiations != 0 {
			t.Fatalf("parallelism %d: pre-cancelled run did work: %+v", par, res)
		}
	}
}

// TestChaseBudgetDeterministic: at Parallelism 1 a fixed MaxChaseSteps
// yields a fully deterministic partial Result — run twice, compare deeply —
// and a large enough budget converges to the unbudgeted answer.
func TestChaseBudgetDeterministic(t *testing.T) {
	db, view, sigma, phiYes, _ := chainUnionWorkload(t)
	ref, err := Check(db, view, sigma, phiYes, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	converged := false
	for _, budget := range []int64{1, 2, 5, 20, 100, 1000, 100000} {
		opts := Options{Parallelism: 1, MaxChaseSteps: budget}
		a, err := Check(db, view, sigma, phiYes, opts)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		b, err := Check(db, view, sigma, phiYes, opts)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("budget %d: nondeterministic partial result: %+v vs %+v", budget, a, b)
		}
		switch a.Stopped {
		case StopChaseBudget:
			if !a.Propagated {
				t.Fatalf("budget %d: stopped run cannot refute: %+v", budget, a)
			}
		case StopNone:
			if !reflect.DeepEqual(a, ref) {
				t.Fatalf("budget %d: unstopped result diverged: %+v vs %+v", budget, a, ref)
			}
			converged = true
		default:
			t.Fatalf("budget %d: unexpected stop reason %s", budget, a.Stopped)
		}
	}
	if !converged {
		t.Fatal("no budget in the sweep was large enough to finish the check")
	}
}

// TestRefutationDefinitiveUnderBudget: once the budget admits the
// counterexample pair, the refutation is reported with Stopped clear —
// a partial run never weakens a definitive "not propagated".
func TestRefutationDefinitiveUnderBudget(t *testing.T) {
	db, view, sigma, _, phiNo := chainUnionWorkload(t)
	refuted := false
	for budget := int64(1); budget <= 1<<20; budget *= 2 {
		res, err := Check(db, view, sigma, phiNo, Options{Parallelism: 1, MaxChaseSteps: budget})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if !res.Propagated {
			if res.Stopped != StopNone {
				t.Fatalf("budget %d: refutation must clear Stopped: %+v", budget, res)
			}
			refuted = true
			break
		}
		if res.Stopped != StopChaseBudget {
			t.Fatalf("budget %d: propagated verdict under a budget must be a budget stop (workload is refutable): %+v", budget, res)
		}
	}
	if !refuted {
		t.Fatal("no budget in the sweep admitted the counterexample")
	}
}

// TestBudgetSharedAcrossWorkers: runs at every worker count share one
// global step pool, so a budget that stops the one-worker run also stops
// (or finishes) every parallel run — never an error, never a refutation.
func TestBudgetSharedAcrossWorkers(t *testing.T) {
	db, view, sigma, phiYes, _ := chainUnionWorkload(t)
	for _, budget := range []int64{3, 17, 64} {
		for _, par := range []int{1, 2, 4} {
			res, err := Check(db, view, sigma, phiYes, Options{Parallelism: par, MaxChaseSteps: budget})
			if err != nil {
				t.Fatalf("budget %d par %d: %v", budget, par, err)
			}
			if res.Stopped != StopChaseBudget && res.Stopped != StopNone {
				t.Fatalf("budget %d par %d: unexpected stop reason %s", budget, par, res.Stopped)
			}
			if !res.Propagated {
				t.Fatalf("budget %d par %d: spurious refutation: %+v", budget, par, res)
			}
		}
	}
}

// TestDeadlineComposesWithContext: a deadline derived from a cancelled
// parent context stops as cancelled, not as a deadline: whichever fires
// first decides the stop reason.
func TestDeadlineComposesWithContext(t *testing.T) {
	db, view, sigma, phi := bigGeneralWorkload(t)
	parent, cancel := context.WithCancel(context.Background())
	cancel()
	ctx, stop := context.WithTimeout(parent, time.Hour)
	defer stop()
	res, err := Check(db, view, sigma, phi, Options{
		General: true, Context: ctx, Parallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != StopCancelled {
		t.Fatalf("Stopped = %s, want %s", res.Stopped, StopCancelled)
	}
}

// TestStopReasonTextRoundTrip: every StopReason survives
// MarshalText/UnmarshalText unchanged (the daemon's wire format depends on
// the symbolic encoding), empty text decodes as StopNone, and values
// outside the enum fail both ways instead of silently aliasing.
func TestStopReasonTextRoundTrip(t *testing.T) {
	for _, r := range []StopReason{StopNone, StopCancelled, StopDeadline, StopChaseBudget} {
		text, err := r.MarshalText()
		if err != nil {
			t.Fatalf("MarshalText(%s): %v", r, err)
		}
		var back StopReason
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("UnmarshalText(%q): %v", text, err)
		}
		if back != r {
			t.Fatalf("round trip: %s -> %q -> %s", r, text, back)
		}
	}
	var r StopReason
	if err := r.UnmarshalText(nil); err != nil || r != StopNone {
		t.Fatalf("empty text: %v, %s; want nil, %s", err, r, StopNone)
	}
	if err := r.UnmarshalText([]byte("catastrophe")); err == nil {
		t.Fatal("unknown stop reason decoded without error")
	}
	if _, err := StopReason(200).MarshalText(); err == nil {
		t.Fatal("out-of-range StopReason marshaled without error")
	}
}
