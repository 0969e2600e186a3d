//go:build faultinject

package faultinject_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"cfdprop/internal/algebra"
	"cfdprop/internal/cfd"
	"cfdprop/internal/faultinject"
	"cfdprop/internal/implication"
	"cfdprop/internal/parutil"
	"cfdprop/internal/propagation"
	"cfdprop/internal/rel"
)

// The randomized crash-safety suite: every test below runs hundreds of
// seeded random fault schedules — panics, delays and forced cancellations
// injected mid-chase and mid-worker — and checks the stack's robustness
// invariants: no injected fault deadlocks or crashes a worker group, or
// makes a Result depend on the worker count.
// Run with: go test -race -tags faultinject ./internal/faultinject/

// recoverInjected swallows an Injected panic (the expected outcome of a
// Panic rule unwinding through a re-panicking boundary) and rethrows
// anything else.
func recoverInjected(t *testing.T) {
	t.Helper()
	if r := recover(); r != nil {
		if _, ok := r.(faultinject.Injected); !ok {
			panic(r)
		}
	}
}

// isInjectedErr reports whether an error is (or wraps the text of) an
// injected fault captured at a worker boundary.
func isInjectedErr(err error) bool {
	return err != nil && strings.Contains(err.Error(), "faultinject: injected panic")
}

// implWorkload: Σ is a transitive FD chain on V(A,B,C,D).
func implWorkload() (implication.Universe, []*cfd.CFD) {
	schema := rel.InfiniteSchema("V", "A", "B", "C", "D")
	u := implication.UniverseOf(schema)
	sigma := []*cfd.CFD{
		cfd.MustParse("V(A -> B)"),
		cfd.MustParse("V(B -> C)"),
		cfd.MustParse("V(C -> D)"),
	}
	return u, sigma
}

// propWorkload: a 3-disjunct union view over one source relation with a
// chain Σ; V(A1→A5) propagates through the chain, V(A5→A1) does not.
func propWorkload() (*rel.DBSchema, *algebra.SPCU, []*cfd.CFD, *cfd.CFD, *cfd.CFD) {
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
		panic(err)
	}
	return db, view, sigma, cfd.MustParse("V(A1 -> A4)"), cfd.MustParse("V(A4 -> A1)")
}

// TestMinCoverScreenSurvivesFaults drives ParallelMinCover — whose
// reduction and screen phases fan candidates across 3 workers — under
// injected chase-step panics. A fault must surface as an error or an
// Injected panic, never a deadlock, and a fault-free retry must give the
// reference cover.
func TestMinCoverScreenSurvivesFaults(t *testing.T) {
	defer faultinject.Reset()
	u, sigma := implWorkload()
	// Redundant Σ so MinCover has real screening work.
	work := append([]*cfd.CFD{cfd.MustParse("V(A -> C)"), cfd.MustParse("V(A -> D)")}, sigma...)

	ref, err := implication.NewSession(u).MinCover(work)
	if err != nil {
		t.Fatal(err)
	}

	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		faultinject.Install(faultinject.Rule{
			Site: faultinject.SiteImplicationStep,
			Nth:  int64(1 + rng.Intn(40)),
			Act:  faultinject.Panic,
		})
		func() {
			defer recoverInjected(t)
			cover, err := implication.ParallelMinCover(context.Background(), u, work, 3)
			if err != nil {
				var pe *parutil.PanicError
				if !errors.As(err, &pe) || !isInjectedErr(err) {
					t.Errorf("seed %d: MinCover error: %v", seed, err)
				}
				return
			}
			if len(cover) != len(ref) {
				t.Errorf("seed %d: cover size %d, want %d", seed, len(cover), len(ref))
			}
		}()

		faultinject.Reset()
		cover, err := implication.ParallelMinCover(context.Background(), u, work, 3)
		if err != nil {
			t.Fatalf("seed %d: fault-free retry failed: %v", seed, err)
		}
		if len(cover) != len(ref) {
			t.Fatalf("seed %d: retry cover size %d, want %d", seed, len(cover), len(ref))
		}
		for i := range cover {
			if cover[i].Key() != ref[i].Key() {
				t.Fatalf("seed %d: retry cover diverged at %d: %s vs %s", seed, i, cover[i], ref[i])
			}
		}
	}
}

// TestPropagationDelayEquivalence injects random delays into chase steps
// and parallel worker task pickup, perturbing scheduling as hard as a
// slow machine would, and checks the parallel Result stays byte-identical
// to the fault-free one-worker reference.
func TestPropagationDelayEquivalence(t *testing.T) {
	defer faultinject.Reset()
	db, view, sigma, phiYes, phiNo := propWorkload()

	type refCase struct {
		phi *cfd.CFD
		ref *propagation.Result
	}
	var cases []refCase
	for _, phi := range []*cfd.CFD{phiYes, phiNo} {
		ref, err := propagation.Check(db, view, sigma, phi, propagation.Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, refCase{phi, ref})
	}

	sites := []string{faultinject.SiteChaseStep, faultinject.SitePropWorker}
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		var rules []faultinject.Rule
		for i := 0; i < 1+rng.Intn(3); i++ {
			rules = append(rules, faultinject.Rule{
				Site:  sites[rng.Intn(len(sites))],
				Nth:   int64(1 + rng.Intn(60)),
				Act:   faultinject.Delay,
				Delay: time.Duration(rng.Intn(50)) * time.Microsecond,
			})
		}
		faultinject.Install(rules...)
		for _, c := range cases {
			res, err := propagation.Check(db, view, sigma, c.phi, propagation.Options{Parallelism: 4})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if res.Propagated != c.ref.Propagated || res.PairsChecked != c.ref.PairsChecked ||
				res.Instantiations != c.ref.Instantiations || res.Truncated != c.ref.Truncated ||
				res.Stopped != c.ref.Stopped {
				t.Fatalf("seed %d: %s diverged under delays: %+v vs %+v", seed, c.phi, res, c.ref)
			}
		}
	}
}

// TestPropagationWorkerPanicSurfaces arms a panic inside the parallel
// pair-worker loop: Check must return it as an error (captured at the
// worker boundary — no crash, no hung worker group), and a fault-free
// rerun must match the reference.
func TestPropagationWorkerPanicSurfaces(t *testing.T) {
	defer faultinject.Reset()
	db, view, sigma, phiYes, _ := propWorkload()
	ref, err := propagation.Check(db, view, sigma, phiYes, propagation.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}

	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(3000 + seed))
		faultinject.Install(faultinject.Rule{
			Site: faultinject.SitePropWorker,
			Nth:  int64(1 + rng.Intn(6)), // the 3-disjunct union has 6 pair tasks
			Act:  faultinject.Panic,
		})
		_, err := propagation.Check(db, view, sigma, phiYes, propagation.Options{Parallelism: 4})
		if err == nil {
			t.Fatalf("seed %d: injected worker panic did not surface", seed)
		}
		var pe *parutil.PanicError
		if !strings.Contains(err.Error(), "worker panic") || !errors.As(err, &pe) {
			t.Fatalf("seed %d: unexpected error: %v", seed, err)
		}

		faultinject.Reset()
		res, err := propagation.Check(db, view, sigma, phiYes, propagation.Options{Parallelism: 4})
		if err != nil || res.Propagated != ref.Propagated || res.PairsChecked != ref.PairsChecked {
			t.Fatalf("seed %d: fault-free rerun diverged: %+v, %v", seed, res, err)
		}
	}
}

// TestPropagationCancelInjection fires a context cancellation from inside a
// random chase step and checks the stop contract: never an error, Stopped
// is either clear (the run won the race) with the reference Result, or
// StopCancelled; and a refutation is only ever reported definitively
// (Propagated false implies Stopped clear).
func TestPropagationCancelInjection(t *testing.T) {
	defer faultinject.Reset()
	db, view, sigma, phiYes, phiNo := propWorkload()
	refYes, err := propagation.Check(db, view, sigma, phiYes, propagation.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}

	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(4000 + seed))
		phi, ref := phiYes, refYes
		if seed%2 == 1 {
			phi, ref = phiNo, nil
		}
		par := 1 + 3*rng.Intn(2) // 1 or 4
		ctx, cancel := context.WithCancel(context.Background())
		faultinject.Install(faultinject.Rule{
			Site:   faultinject.SiteChaseStep,
			Nth:    int64(1 + rng.Intn(200)),
			Act:    faultinject.Cancel,
			Cancel: cancel,
		})
		res, err := propagation.Check(db, view, sigma, phi, propagation.Options{Parallelism: par, Context: ctx})
		cancel()
		if err != nil {
			t.Fatalf("seed %d: cancellation surfaced as error: %v", seed, err)
		}
		switch res.Stopped {
		case propagation.StopNone:
			if ref != nil && (res.Propagated != ref.Propagated || res.PairsChecked != ref.PairsChecked) {
				t.Fatalf("seed %d: unstopped run diverged: %+v vs %+v", seed, res, ref)
			}
			if ref == nil && res.Propagated {
				t.Fatalf("seed %d: refutable φ reported propagated without a stop", seed)
			}
		case propagation.StopCancelled:
			if !res.Propagated {
				t.Fatalf("seed %d: refutation must be definitive (Stopped clear), got %+v", seed, res)
			}
		default:
			t.Fatalf("seed %d: unexpected stop reason %s", seed, res.Stopped)
		}
	}
}

// generalWorkload: a 2-disjunct union whose source mixes an infinite FD
// chain with two finite attributes, so the general-setting check runs the
// factorised enumeration (81 assignments per pair) and crosses the
// chase-rewind seam once per assignment.
func generalWorkload() (*rel.DBSchema, *algebra.SPCU, []*cfd.CFD, *cfd.CFD, *cfd.CFD) {
	db := rel.MustDBSchema(rel.MustSchema("R1",
		rel.Attribute{Name: "A1", Domain: rel.Infinite()},
		rel.Attribute{Name: "A2", Domain: rel.Infinite()},
		rel.Attribute{Name: "A3", Domain: rel.Infinite()},
		rel.Attribute{Name: "F1", Domain: rel.FiniteDomain("d", "1", "2", "3")},
		rel.Attribute{Name: "F2", Domain: rel.FiniteDomain("d", "1", "2", "3")},
	))
	attrs := []string{"A1", "A2", "A3", "F1", "F2"}
	sigma := []*cfd.CFD{
		cfd.MustParse("R1(A1 -> A2)"),
		cfd.MustParse("R1(A2 -> A3)"),
	}
	ds := make([]*algebra.SPC, 2)
	for d := range ds {
		ds[d] = &algebra.SPC{
			Name:       "V",
			Atoms:      []algebra.RelAtom{{Source: "R1", Attrs: attrs}},
			Selection:  []algebra.EqAtom{{Left: "A3", IsConst: true, Right: fmt.Sprintf("%d", d+1)}},
			Projection: attrs,
		}
	}
	view, err := algebra.NewSPCU("V", ds...)
	if err != nil {
		panic(err)
	}
	return db, view, sigma, cfd.MustParse("V(A1 -> A3)"), cfd.MustParse("V(A3 -> A1)")
}

// TestChaseRewindFaults arms panics and delays at the factorised chase's
// rewind seam — the snapshot/rollback boundary the general-setting
// enumeration crosses between assignments — plus the chase-step seam, and
// checks the contract: at every worker count a panic surfaces as a
// captured worker error, never a raw panic, crash, deadlock or lost
// worker; a delay never changes the Result; and a fault-free rerun is
// byte-identical to the reference.
func TestChaseRewindFaults(t *testing.T) {
	defer faultinject.Reset()
	db, view, sigma, phiYes, phiNo := generalWorkload()

	refs := map[*cfd.CFD]*propagation.Result{}
	for _, phi := range []*cfd.CFD{phiYes, phiNo} {
		ref, err := propagation.Check(db, view, sigma, phi, propagation.Options{
			General: true, WantCounterexample: true, Parallelism: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		refs[phi] = ref
	}

	sites := []string{faultinject.SiteChaseRewind, faultinject.SiteChaseStep}
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(6000 + seed))
		phi := phiYes
		if seed%2 == 1 {
			phi = phiNo
		}
		par := []int{1, 4, 8}[rng.Intn(3)]
		rule := faultinject.Rule{
			Site: sites[rng.Intn(len(sites))],
			Nth:  int64(1 + rng.Intn(120)),
			Act:  faultinject.Panic,
		}
		delay := rng.Intn(2) == 0
		if delay {
			rule.Act = faultinject.Delay
			rule.Delay = time.Duration(rng.Intn(30)) * time.Microsecond
		}
		faultinject.Install(rule)
		func() {
			res, err := propagation.Check(db, view, sigma, phi, propagation.Options{
				General: true, WantCounterexample: true, Parallelism: par,
			})
			if err != nil {
				if !isInjectedErr(err) {
					t.Errorf("seed %d: unexpected error: %v", seed, err)
				}
				return
			}
			// A delay (or an unfired panic rule) must not perturb anything.
			if res.Propagated != refs[phi].Propagated || res.PairsChecked != refs[phi].PairsChecked ||
				res.Instantiations != refs[phi].Instantiations || res.Truncated != refs[phi].Truncated {
				t.Errorf("seed %d: %s diverged under faults: %+v vs %+v", seed, phi, res, refs[phi])
			}
		}()

		faultinject.Reset()
		res, err := propagation.Check(db, view, sigma, phi, propagation.Options{
			General: true, WantCounterexample: true, Parallelism: par,
		})
		if err != nil {
			t.Fatalf("seed %d: fault-free rerun failed: %v", seed, err)
		}
		if res.Propagated != refs[phi].Propagated || res.Instantiations != refs[phi].Instantiations {
			t.Fatalf("seed %d: fault-free rerun diverged: %+v vs %+v", seed, res, refs[phi])
		}
	}
}

// TestParutilWorkerPanicCaptured arms panics at the shared worker seam and
// checks DoCtx returns an error — never a crash or WaitGroup deadlock —
// on both the serial and parallel paths, with fault-free items unharmed.
func TestParutilWorkerPanicCaptured(t *testing.T) {
	defer faultinject.Reset()
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(5000 + seed))
		const n = 20
		nth := int64(1 + rng.Intn(n))
		workers := []int{1, 4}[rng.Intn(2)]
		faultinject.Install(faultinject.Rule{
			Site: faultinject.SiteParutilWorker,
			Nth:  nth,
			Act:  faultinject.Panic,
		})
		hits := make([]bool, n)
		err := parutil.DoCtx(context.Background(), n, workers, func(_, i int) { hits[i] = true })
		if err == nil {
			t.Fatalf("seed %d: injected worker panic did not surface", seed)
		}
		if !strings.Contains(err.Error(), "worker panic") {
			t.Fatalf("seed %d: unexpected error: %v", seed, err)
		}
		faultinject.Reset()
		// The panicked item's fn never ran; no other slot may be corrupted.
		ran := 0
		for _, h := range hits {
			if h {
				ran++
			}
		}
		if ran >= n {
			t.Fatalf("seed %d: all items report done despite a panicked worker", seed)
		}
	}
}
