// Package propagation implements the dependency propagation decision
// procedures of Fan et al. (VLDB 2008) §3: given a source schema R, a set
// Σ of source dependencies (FDs or CFDs), an SPCU view V and a view CFD φ,
// decide Σ |=V φ — whether every source instance satisfying Σ yields a
// view satisfying φ.
//
// Infinite-domain setting (Theorems 3.1 and 3.5, PTIME): for every pair of
// union disjuncts (ei, ej), build two variable-disjoint tableaux, equate
// their summaries on φ's LHS (binding pattern constants), and chase with Σ.
// A counterexample exists iff the chase completes and the two summary terms
// for φ's RHS attribute differ, or agree on a term incompatible with a
// constant RHS pattern. The terminal chase instance, instantiated with
// pairwise-distinct fresh constants, is a concrete counterexample database.
//
// General setting (Theorems 3.2, 3.3 and Corollary 3.6, coNP-complete):
// the same test is run once per instantiation of the unbound finite-domain
// variables of the initial symbolic instance, exactly as in the paper's
// appendix proofs. The enumeration is capped by MaxInstantiations; a hit
// cap is reported through Result.Truncated rather than an error.
//
// # Factorised chase
//
// The default general-setting enumeration does not re-chase the whole
// tableau pair per assignment. Instead the instantiation-independent
// prefix — the chase of the pair with no finite-domain root bound — runs
// once; each assignment then binds only the enumerated roots, resumes the
// worklist from exactly the CFDs whose LHS touches a changed class (the
// sym event journal seeds it), and rolls the suffix back through the sym
// undo journal (Mark/Rewind) before the next assignment. Correctness
// rests on three facts, each differentially tested against a test-only
// reference loop that re-chases the pair per assignment:
//
//   - Chase firings are monotone in the bound constants, so the prefix's
//     firings are a subset of every assignment's and the per-assignment
//     fixpoint (unique, by Church–Rosser) is reached identically.
//   - A root bind that fails on the prefix-chased state corresponds
//     exactly to an assignment whose full chase is undefined — vacuous in
//     the ∀ — so whole subtrees of the mixed-radix enumeration are counted
//     without being visited.
//   - Counterexample instantiation assigns fresh constants in row/column
//     encounter order, which the rollback preserves, so Counterexample
//     bytes are identical to the reference path's.
//
// # Memoisation
//
// Options.Memo caches, across Check calls sharing one (schema, Σ, V):
// per-pair verdicts (refuted/propagated, instantiation counts, truncation,
// counterexamples — keyed by the two disjunct embeddings, φ, and the
// option knobs that shape the outcome) and per-disjunct intrinsic
// emptiness (keyed by the embedding alone — φ-independent, the main
// cross-candidate win in core.PropCFDSPCU's union-candidate loop). Nothing
// keyed on mutable state is cached: a Σ or view edit either requires a
// fresh Memo or a Memo.Migrate across the EditSet — Migrate carries every
// entry the edit provably cannot affect (emptiness of surviving disjuncts,
// pairs whose relations the edit never touches, Σ-independent unrealizable
// pairs) and drops the rest, so a warm re-check after a small edit replays
// most of its pair verdicts instead of re-chasing them. The daemon's PUT
// and PATCH sigma paths both migrate (a PUT diffs its Σ against the old
// one with DiffSigma) and report the carry-over. Replayed entries
// reproduce the stored Result fields byte-for-byte, and stores are
// buffered per call and flushed in schedule order, so hit/miss counters
// are identical at every Parallelism.
//
// # Concurrency model
//
// Check is a pure function and safe to call concurrently. It runs one
// executor at every worker count (parallel.go): the O(k²) union-disjunct
// pair loop is laid out up front as a schedule, Options.Parallelism
// workers claim its entries (the default is GOMAXPROCS), and a pair's
// general-setting instantiation enumeration splits across the workers the
// pairs leave idle. Each worker owns one pooled sym.State + chase.Inst
// pair reused via Reset across pair checks; with Parallelism 1 the lone
// worker runs on the calling goroutine. The first counterexample in the
// paper's (i, j ≥ i, instantiation) order cancels outstanding work, and
// the Result — Propagated, Counterexample, PairsChecked, Instantiations,
// Truncated — is byte-identical at every worker count: work past the
// winning index is discarded, and every pair at or below it completes
// exactly as the nested loop would.
package propagation

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"cfdprop/internal/algebra"
	"cfdprop/internal/cfd"
	"cfdprop/internal/chase"
	"cfdprop/internal/rel"
	"cfdprop/internal/sym"
	"cfdprop/internal/tableau"
)

// Options configures a propagation check.
type Options struct {
	// General enables the general-setting (finite-domain) procedure. It is
	// required when the source schema has finite-domain attributes.
	General bool
	// MaxInstantiations caps the finite-domain enumeration per pair check
	// (0 = DefaultMaxInstantiations). When a pair's instantiation space
	// exceeds the cap, the first MaxInstantiations assignments (in the
	// deterministic enumeration order) are examined: a counterexample
	// found among them is definitive, while exhausting the cap without one
	// sets Result.Truncated — the check is then incomplete, not silently
	// treated as propagated. The guard saturates instead of overflowing,
	// so domain products beyond the int range are handled.
	MaxInstantiations int
	// WantCounterexample requests construction of a concrete witness
	// database when the dependency is not propagated.
	WantCounterexample bool
	// Parallelism is the number of workers the pair loop and the
	// general-setting instantiation enumeration fan out over. 0 selects
	// runtime.GOMAXPROCS(0); 1 runs one worker on the calling goroutine.
	// Results are identical at every setting.
	Parallelism int
	// Context, when non-nil, cancels the check cooperatively: the pair
	// loops, the finite-domain enumerations and the chase worklists all
	// poll it. Cancellation surfaces as Result.Stopped = StopCancelled (or
	// StopDeadline when the context's own deadline expired), never as an
	// error. nil means no cancellation.
	Context context.Context
	// Deadline, when > 0, bounds the whole Check call's wall-clock time;
	// expiry surfaces as Result.Stopped = StopDeadline. It composes with
	// Context (whichever fires first wins).
	Deadline time.Duration
	// MaxChaseSteps, when > 0, bounds the total number of chase worklist
	// steps the whole call may spend, shared across all workers — a
	// deterministic resource budget alongside the per-pair
	// MaxInstantiations cap. Exhaustion surfaces as Result.Stopped =
	// StopChaseBudget; with a fixed budget and Parallelism = 1 the partial
	// Result is fully deterministic. The general-setting enumeration
	// chases each pair's shared prefix once and extends it per assignment,
	// so it spends far fewer steps than re-chasing every assignment would.
	MaxChaseSteps int64
	// Memo, when non-nil, caches pair outcomes, counterexamples and
	// disjunct emptiness across Check calls sharing one (schema, Σ, V)
	// scope — see the Memo type for the invalidation contract. Hits
	// replay the exact counters of a fresh evaluation; Result.MemoHits and
	// Result.MemoMisses report the traffic.
	Memo *Memo
	// Prevalidated asserts the caller has already established Check's
	// input invariants: view.Validate(db) passed, φ is a valid CFD over
	// the view schema with φ.Relation == view.Name, and
	// cfd.ValidateAll(sigma, db) passed. Check then skips its per-call
	// re-validation — the win for callers like core's union candidate
	// loops, which validate once and then issue one Check per candidate
	// against the same (db, view, Σ). Results are unchanged; only
	// malformed-input errors go undetected.
	Prevalidated bool

	// sp carries the call's stop controls through the internal pair loops;
	// set by Check, never by callers.
	sp *stopper
	// txn is the call's buffered view of Memo; set by Check.
	txn *memoTxn
}

// DefaultMaxInstantiations caps finite-domain enumeration.
const DefaultMaxInstantiations = 1 << 20

// Result reports the outcome of a propagation check.
type Result struct {
	Propagated bool
	// Counterexample is a source database D with D |= Σ and V(D) |̸= φ;
	// populated when !Propagated and Options.WantCounterexample.
	Counterexample *rel.Database
	// PairsChecked counts disjunct pair checks performed.
	PairsChecked int
	// Instantiations counts finite-domain assignments examined (general
	// setting only).
	Instantiations int
	// Truncated reports that some pair's finite-domain enumeration hit
	// Options.MaxInstantiations without finding a counterexample; when
	// set together with Propagated, the answer is "no counterexample
	// found within the cap", not a proof of propagation.
	Truncated bool
	// Stopped reports that a whole-call stop control fired — the context
	// was cancelled, the deadline expired, or the chase-step budget ran
	// out — before the check completed. Like Truncated, Propagated then
	// means only "no counterexample found before the stop". A refutation
	// found before the stop is definitive: it is returned with Propagated
	// false and Stopped clear. The counters reflect exactly the work
	// finished before the stop, and for a fixed stop point (e.g. a fixed
	// MaxChaseSteps at Parallelism 1) the partial Result is deterministic.
	Stopped StopReason
	// MemoHits and MemoMisses count pair checks served from Options.Memo
	// vs evaluated fresh (and then stored). Both stay zero without a
	// memo. Misses count only pair checks that completed an evaluation —
	// empty or unrealizable pairs and stopped checks are neither.
	MemoHits, MemoMisses int
}

// ErrFiniteDomains is returned when the infinite-domain procedure is asked
// about a schema with finite-domain attributes; the caller must opt into
// the general setting (the infinite-domain test is neither sound nor
// complete there).
var ErrFiniteDomains = errors.New("propagation: schema has finite-domain attributes; set Options.General")

// Check decides Σ |=V φ.
func Check(db *rel.DBSchema, view *algebra.SPCU, sigma []*cfd.CFD, phi *cfd.CFD, opts Options) (*Result, error) {
	if !opts.Prevalidated {
		if err := view.Validate(db); err != nil {
			return nil, err
		}
		if phi.Relation != view.Name {
			return nil, fmt.Errorf("propagation: %s is on relation %q, view is %q", phi, phi.Relation, view.Name)
		}
		vs, err := view.ViewSchema(db)
		if err != nil {
			return nil, err
		}
		if err := phi.Validate(vs); err != nil {
			return nil, err
		}
		if err := cfd.ValidateAll(sigma, db); err != nil {
			return nil, err
		}
	}
	if db.HasFiniteAttr() && !opts.General {
		return nil, ErrFiniteDomains
	}
	if opts.MaxInstantiations <= 0 {
		opts.MaxInstantiations = DefaultMaxInstantiations
	}
	if opts.Parallelism == 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	if opts.Parallelism < 1 {
		opts.Parallelism = 1
	}
	sigmaN := cfd.NormalizeAll(sigma)

	if sp := newStopper(opts); sp != nil {
		defer sp.release()
		opts.sp = sp
	}

	total := &Result{Propagated: true}
	if opts.Memo != nil {
		opts.txn = opts.Memo.begin()
		// Commit on every exit: entries computed before an error or stop
		// are complete, valid outcomes worth keeping.
		defer func() { opts.txn.commit(total.MemoHits, total.MemoMisses) }()
	}
	for _, p := range phi.Normalize() {
		r, err := runSchedule(db, view, sigmaN, p, opts)
		if err != nil {
			return nil, err
		}
		total.PairsChecked += r.PairsChecked
		total.Instantiations += r.Instantiations
		total.Truncated = total.Truncated || r.Truncated
		total.MemoHits += r.MemoHits
		total.MemoMisses += r.MemoMisses
		if !r.Propagated {
			total.Propagated = false
			total.Counterexample = r.Counterexample
			return total, nil
		}
		if r.Stopped != StopNone {
			total.Stopped = r.Stopped
			return total, nil
		}
	}
	return total, nil
}

// pairWorker owns one sym.State + chase.Inst pair with the source
// relations declared, reused via reset across pair checks instead of
// re-allocating state and re-declaring relations per pair. Workers are
// not goroutine-safe; the schedule executor gives each goroutine its own.
type pairWorker struct {
	st *sym.State
	ci *chase.Inst
}

func newPairWorker(db *rel.DBSchema) (*pairWorker, error) {
	st := sym.NewState()
	ci := chase.NewInst(st)
	if err := declareSources(ci, db); err != nil {
		return nil, err
	}
	return &pairWorker{st: st, ci: ci}, nil
}

// reset clears the worker for the next pair check, keeping declared
// relations and allocated capacity. Variable ids restart from zero, so a
// reset worker builds byte-identical states to a fresh one.
func (w *pairWorker) reset() {
	w.st.Reset()
	w.ci.Reset()
}

// attach installs the call's stop controls (context + shared chase-step
// budget) onto the worker's chase instance; a no-op without controls.
func (w *pairWorker) attach(opts Options) {
	if opts.sp != nil {
		w.ci.SetControl(opts.sp.ctx, opts.sp.steps)
	}
}

// Outcomes of preparePair / prepareEquality.
const (
	prepOK           = iota // tableaux built, premise equated
	prepEmptyFirst          // first disjunct's tableau is inconsistent
	prepEmptySecond         // second disjunct's tableau is inconsistent
	prepUnrealizable        // φ's premise cannot be realized for this pair
)

// preparePair builds the two variable-disjoint tableaux for (e1, e2) in w
// and equates their summaries on φ's LHS. The construction order is fixed
// (t1's variables, then t2's, then the premise equations in φ.LHS order)
// so every worker reproduces identical sym.State layouts.
func preparePair(w *pairWorker, db *rel.DBSchema, e1, e2 *algebra.SPC, phi *cfd.CFD) (t1, t2 *tableau.Tableau, outcome int, err error) {
	st, ci := w.st, w.ci
	t1, err = buildTableau(ci, db, e1)
	if err != nil {
		if isInconsistent(err) {
			return nil, nil, prepEmptyFirst, nil
		}
		return nil, nil, 0, err
	}
	t2, err = buildTableau(ci, db, e2)
	if err != nil {
		if isInconsistent(err) {
			return nil, nil, prepEmptySecond, nil
		}
		return nil, nil, 0, err
	}

	// Premise: summaries agree on φ's LHS and match its pattern constants.
	for _, it := range phi.LHS {
		a, b := t1.Summary[it.Attr], t2.Summary[it.Attr]
		if !it.Pat.Wildcard {
			if st.Bind(a, it.Pat.Const) != nil || st.Bind(b, it.Pat.Const) != nil {
				return nil, nil, prepUnrealizable, nil
			}
		}
		if st.Equate(a, b) != nil {
			return nil, nil, prepUnrealizable, nil
		}
	}
	return t1, t2, prepOK, nil
}

// pairEval bundles the two per-instantiation tests of a prepared pair:
// evaluate chases from scratch and compares (the infinite-domain setting,
// a pair with no finite root to enumerate, and the tests' full-rechase
// oracle); verdict only compares, for use on a state the factorised path
// has already chased.
type pairEval struct {
	sigmaN   []*cfd.CFD
	evaluate func() (bool, error)
	verdict  func() bool
}

// pairVerdict returns the summary comparison of a prepared pair, to be
// called on an already-chased state. It duplicates the tail of
// pairEvaluate on purpose: evaluate is the reference the factorised path
// is differentially tested against, so they must not share code.
func pairVerdict(w *pairWorker, t1, t2 *tableau.Tableau, rhs cfd.Item) func() bool {
	st := w.st
	return func() bool {
		a1 := st.Resolve(t1.Summary[rhs.Attr])
		a2 := st.Resolve(t2.Summary[rhs.Attr])
		if !st.SameTerm(a1, a2) {
			return false
		}
		if rhs.Pat.Wildcard {
			return true
		}
		return !a1.IsVar && a1.Const == rhs.Pat.Const
	}
}

// equalityVerdict is pairVerdict's counterpart for equality CFDs.
func equalityVerdict(w *pairWorker, t *tableau.Tableau, a, b string) func() bool {
	st := w.st
	return func() bool { return st.SameTerm(t.Summary[a], t.Summary[b]) }
}

// pairEvaluate returns the per-instantiation test for a prepared pair:
// chase with Σ, then compare the two summary terms of φ's RHS attribute.
func pairEvaluate(w *pairWorker, sigmaN []*cfd.CFD, t1, t2 *tableau.Tableau, rhs cfd.Item) func() (bool, error) {
	st, ci := w.st, w.ci
	return func() (propagated bool, err error) {
		if err := ci.Run(sigmaN); err != nil {
			if isUndefined(err) {
				return true, nil // premise unrealizable under Σ
			}
			return false, err
		}
		a1 := st.Resolve(t1.Summary[rhs.Attr])
		a2 := st.Resolve(t2.Summary[rhs.Attr])
		if !st.SameTerm(a1, a2) {
			return false, nil
		}
		if rhs.Pat.Wildcard {
			return true, nil
		}
		return !a1.IsVar && a1.Const == rhs.Pat.Const, nil
	}
}

// prepareEquality builds the single-disjunct tableau for a special-form
// equality CFD V(A → B, (x ‖ x)).
func prepareEquality(w *pairWorker, db *rel.DBSchema, e *algebra.SPC) (t *tableau.Tableau, outcome int, err error) {
	t, err = buildTableau(w.ci, db, e)
	if err != nil {
		if isInconsistent(err) {
			return nil, prepEmptyFirst, nil
		}
		return nil, 0, err
	}
	return t, prepOK, nil
}

// equalityEvaluate returns the per-instantiation test for an equality CFD:
// chase with Σ, then check the two summary terms coincide.
func equalityEvaluate(w *pairWorker, sigmaN []*cfd.CFD, t *tableau.Tableau, a, b string) func() (bool, error) {
	st, ci := w.st, w.ci
	return func() (bool, error) {
		if err := ci.Run(sigmaN); err != nil {
			if isUndefined(err) {
				return true, nil
			}
			return false, err
		}
		return st.SameTerm(t.Summary[a], t.Summary[b]), nil
	}
}

// enumPlan describes a pair's finite-domain enumeration: the unbound
// finite roots, their domains, and the (possibly capped) number of
// assignment indexes to examine in mixed-radix order — digit 0 varies
// fastest, matching the nested loop's increment order.
type enumPlan struct {
	roots   []int
	domains [][]string
	limit   int  // indexes to examine
	capped  bool // true limit would exceed MaxInstantiations
}

// planEnumeration inspects the worker's state after preparation. empty
// reports that some root has an empty domain (premise unrealizable).
func planEnumeration(st *sym.State, maxInst int) (plan enumPlan, empty bool) {
	plan.roots = st.UnboundFiniteRoots()
	if len(plan.roots) == 0 {
		return plan, false
	}
	plan.domains = make([][]string, len(plan.roots))
	total := 1
	for i, r := range plan.roots {
		plan.domains[i] = st.Domain(sym.Variable(r)).Values
		if len(plan.domains[i]) == 0 {
			return plan, true
		}
		// Overflow guard: saturate at the cap instead of multiplying past
		// the int range.
		if !plan.capped {
			if total > maxInst/len(plan.domains[i]) {
				plan.capped = true
			} else {
				total *= len(plan.domains[i])
			}
		}
	}
	plan.limit = total
	if plan.capped {
		plan.limit = maxInst
	}
	return plan, false
}

// decode writes assignment index idx into choice, digit 0 fastest.
func (p *enumPlan) decode(idx int, choice []int) {
	for i := range p.domains {
		choice[i] = idx % len(p.domains[i])
		idx /= len(p.domains[i])
	}
}
