package propagation

import (
	"cfdprop/internal/chase"
	"cfdprop/internal/rel"
	"cfdprop/internal/sym"
)

// The factorised general-setting enumeration: instead of re-chasing the
// whole tableau pair per assignment, the instantiation-independent prefix
// is chased once (chase.RunPrefix), and each assignment only binds the
// enumerated roots and chases the consequences of those bindings
// (Resumable.Extend), rolling back via journal truncation (Rewind).
// Assignments are visited in the same mixed-radix order as the reference
// path — digit 0 fastest — and rolled back odometer-style: consecutive
// indexes differ in a low-digit suffix, so only that suffix is unbound
// and rebound.
//
// Equivalence with the full-rechase reference path (scanChunk, the
// test-only oracle in parallel_test.go), relied on for byte-identical
// Results:
//
//   - chase firings are monotone in the bound constants, so prefix
//     firings are a subset of every assignment's firings, and the final
//     partition per assignment is the same unique fixpoint either way;
//   - the reference path's pre-chase binds always succeed (the plan's
//     roots are distinct unbound classes and every value is drawn from
//     the root's domain), so it counts every index it visits. Here a
//     bind can fail — the prefix may have bound or merged the root — but
//     that happens exactly when the reference chase would have become
//     undefined, i.e. a vacuously-satisfied assignment: the whole
//     subtree under the failing digit is counted without being visited;
//   - a prefix chase that is itself undefined makes every assignment
//     vacuous: the enumeration is satisfied wholesale, with the full
//     (possibly capped) count.
//
// Counterexamples are byte-identical because chase.Concrete assigns fresh
// constants in row/column encounter order over the same rows, and the
// partition at the refuting leaf is the same fixpoint both paths reach.
//
// The one observable divergence is resource consumption: the factorised
// path takes far fewer chase worklist steps than the reference path, so
// Options.MaxChaseSteps budgets are sized for it. Stop polling is
// preserved per examined leaf; skipped vacuous subtrees are counted
// without polling.

// belowSizes returns below[d] = Π_{i<d} |domain_i| — the number of leaves
// in one digit-d subtree — saturated at plan.limit (indexes never reach
// past the limit, so the saturated value behaves identically).
func belowSizes(plan enumPlan) []int {
	below := make([]int, len(plan.roots))
	b := 1
	for i := range plan.roots {
		below[i] = b
		if b > plan.limit/len(plan.domains[i]) {
			b = plan.limit
		} else {
			b *= len(plan.domains[i])
		}
	}
	return below
}

// scanFactorised scans assignment indexes [lo, hi) with the factorised
// chase — the one range scan scanPlan runs in every chunk. It walks the
// window iteratively with a mark stack: marks[d] is the rewind point
// taken just before digit d was bound, and moving to the next index
// rewinds only up to the highest digit whose value changes.
func scanFactorised(w *pairWorker, db *rel.DBSchema, opts Options, plan enumPlan, ev *pairEval, lo, hi, taskIdx int, bound, inner *atomicMin) chunkResult {
	st := w.st
	r := chunkResult{stopIdx: -1}
	rs, err := w.ci.RunPrefix(ev.sigmaN)
	if err != nil {
		if isUndefined(err) {
			r.count = hi - lo // the whole window is vacuous
			return r
		}
		r.stopIdx = lo
		r.stopErr = err
		inner.min(int64(lo))
		return r
	}
	defer rs.Release()

	nd := len(plan.roots)
	below := belowSizes(plan)
	marks := make([]chase.Mark, nd)
	choice := make([]int, nd)
	prev := make([]int, nd)
	b := nd // digits nd-1..b are bound to prev's values; below b, unbound
	for idx := lo; idx < hi; {
		if int64(idx) > inner.load() {
			break // a lower refutation exists; everything ≤ it is done
		}
		if int64(taskIdx) > bound.load() {
			r.aborted = true
			return r
		}
		if idx&63 == 0 && opts.sp != nil {
			if reason := opts.sp.check(); reason != StopNone {
				r.stopIdx = idx
				r.stopErr = opts.sp.errFor(reason)
				inner.min(int64(idx))
				return r
			}
		}
		plan.decode(idx, choice)
		for d := nd - 1; d >= b; d-- {
			if choice[d] != prev[d] {
				rs.Rewind(marks[d])
				b = d + 1
				break
			}
		}
		vac := -1
		for d := b - 1; d >= 0; d-- {
			marks[d] = rs.Mark()
			if st.Bind(sym.Variable(plan.roots[d]), plan.domains[d][choice[d]]) != nil {
				vac = d
				break
			}
			if err := rs.Extend(); err != nil {
				if isUndefined(err) {
					vac = d
					break
				}
				r.stopIdx = idx
				r.stopErr = err
				inner.min(int64(idx))
				return r
			}
			prev[d] = choice[d]
			b = d
		}
		if vac >= 0 {
			// Digit vac's bind (or its chase) conflicts with the bound
			// prefix: every index sharing the digits ≥ vac is vacuous.
			rs.Rewind(marks[vac])
			b = vac + 1
			rem := below[vac] - idx%below[vac]
			if idx+rem > hi {
				rem = hi - idx
			}
			r.count += rem
			idx += rem
			continue
		}
		r.count++
		if !ev.verdict() {
			r.stopIdx = idx
			if opts.WantCounterexample {
				if witness, err := w.ci.Concrete(db, true); err == nil {
					r.cex = witness
				}
			}
			inner.min(int64(idx))
			return r
		}
		idx++
	}
	return r
}
