package propagation

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cfdprop/internal/algebra"
	"cfdprop/internal/cfd"
	"cfdprop/internal/faultinject"
	"cfdprop/internal/parutil"
	"cfdprop/internal/rel"
	"cfdprop/internal/tableau"
)

// The schedule executor is the one implementation of the §3 pair loop, at
// every worker count. The paper's procedure is a nested loop over union
// disjunct pairs (i, j ≥ i), skipping disjuncts found empty on the way,
// with a per-pair finite-domain enumeration. Everything it does besides
// chasing is deterministic and cheap to precompute:
//
//   - which disjuncts are unconditionally empty is an intrinsic property
//     of each disjunct (its selection is self-contradictory), independent
//     of the pair it appears in;
//   - given the emptiness vector, the exact sequence of pairs the nested
//     loop visits — including the (i,i) visits that merely discover an
//     empty disjunct, which still count toward PairsChecked — is a pure
//     function of k (buildSchedule);
//   - within a pair, the general-setting assignments form a fixed
//     mixed-radix sequence, so the enumeration splits into contiguous
//     index ranges whose outcomes are position-independent.
//
// Pairs therefore fan out over a shared atomic cursor, instantiation
// ranges fan out within a pair, and a monotonically decreasing "bound"
// (the lowest schedule index that refuted or errored so far) cancels work
// that the nested loop would never have reached. Work at or below the
// final bound always completes, which makes PairsChecked, Instantiations,
// Truncated and the counterexample the same at every worker count. With
// one worker the cursor hands out the entries in order on the calling
// goroutine, and the bound stops the loop at the first refutation.

// taskKind labels one entry of the pair schedule.
type taskKind uint8

const (
	taskPair        taskKind = iota // full pair check (premise + evaluate)
	taskEquality                    // single-disjunct equality-CFD check
	taskEmptyFirst                  // visit that discovers disjunct i is empty
	taskEmptySecond                 // visit that discovers disjunct j is empty
)

type pairTask struct {
	i, j int
	kind taskKind
}

// taskOutcome is one schedule entry's contribution to the Result.
type taskOutcome struct {
	err       error
	insts     int // applicable assignments examined
	cex       *rel.Database
	skipped   bool       // cancelled past the final bound; contributes nothing
	stopped   StopReason // a stop control fired before this task started
	refuted   bool
	truncated bool
	memoHit   bool // served from Options.Memo; counters above are a replay
	evaluated bool // the pair reached evaluation (prepOK and the loop ran)
	// unrealizable marks a freshly discovered unrealizable premise: stored
	// in the memo at assembly (counter-free), so the next call skips the
	// pair's tableau builds.
	unrealizable bool
}

// buildSchedule replays the nested loop's iteration order given the
// intrinsic emptiness vector, producing the exact sequence of pair visits
// (and their kinds) it performs when nothing refutes.
func buildSchedule(k int, empty []bool, equality bool) []pairTask {
	if equality {
		// The equality loop visits every disjunct once, in order.
		sched := make([]pairTask, 0, k)
		for i := 0; i < k; i++ {
			kind := taskEquality
			if empty[i] {
				kind = taskEmptyFirst
			}
			sched = append(sched, pairTask{i, i, kind})
		}
		return sched
	}
	sched := make([]pairTask, 0, k*(k+1)/2)
	known := make([]bool, k)
	for i := 0; i < k; i++ {
		if known[i] {
			continue
		}
		if empty[i] {
			// The loop checks (i,i), fails building t1, marks i empty
			// and abandons the row.
			sched = append(sched, pairTask{i, i, taskEmptyFirst})
			known[i] = true
			continue
		}
		for j := i; j < k; j++ {
			if known[j] {
				continue
			}
			if empty[j] {
				// j > i here (i is not empty): the loop builds t1 fine and
				// discovers t2's inconsistency, marking j empty.
				sched = append(sched, pairTask{i, j, taskEmptySecond})
				known[j] = true
				continue
			}
			sched = append(sched, pairTask{i, j, taskPair})
		}
	}
	return sched
}

// atomicMin is a monotonically decreasing int64.
type atomicMin struct{ v atomic.Int64 }

func (m *atomicMin) store(v int64) { m.v.Store(v) }
func (m *atomicMin) load() int64   { return m.v.Load() }
func (m *atomicMin) min(v int64) {
	for {
		cur := m.v.Load()
		if v >= cur || m.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// runSchedule checks one normal-form φ: it scouts disjunct emptiness,
// builds the pair schedule, runs opts.Parallelism workers over it and
// assembles the Result in schedule order.
func runSchedule(db *rel.DBSchema, view *algebra.SPCU, sigmaN []*cfd.CFD, phi *cfd.CFD, opts Options) (*Result, error) {
	k := len(view.Disjuncts)

	// Intrinsic emptiness of each disjunct: its lone tableau build fails
	// with an inconsistency. The nested loop discovers this lazily pair by
	// pair; precomputing it (k cheap builds, no chasing) fixes the
	// schedule. The scout's worker is created only when the memo cannot
	// answer, and is handed on to the pair loop.
	var scout *pairWorker
	var km *pairKeyMaker
	if opts.Memo != nil {
		km = opts.Memo.keyMaker(view, phi, opts)
	}
	empty := make([]bool, k)
	for d := 0; d < k; d++ {
		// Emptiness is intrinsic to the disjunct, so the memo can answer
		// without a build — the main cross-candidate win in union covers,
		// where every candidate re-scouts the same k disjuncts.
		if opts.Memo != nil {
			if e, known := opts.Memo.lookupEmpty(km.disjunct[d]); known {
				empty[d] = e
				continue
			}
		}
		if scout == nil {
			var err error
			if scout, err = newPairWorker(db); err != nil {
				return nil, err
			}
		}
		scout.reset()
		// The view is validated, so a build fails only by inconsistency.
		if _, err := tableau.Build(scout.ci, db, view.Disjuncts[d]); err != nil {
			if !isInconsistent(err) {
				return nil, err
			}
			empty[d] = true
		}
		if opts.Memo != nil {
			opts.Memo.storeEmpty(km.disjunct[d], empty[d])
		}
	}
	if scout != nil {
		scout.attach(opts)
	}

	sched := buildSchedule(k, empty, phi.Equality)
	nEval := 0
	for _, t := range sched {
		if t.kind == taskPair || t.kind == taskEquality {
			nEval++
		}
	}
	// Budget inner (per-pair enumeration) workers so that pairs × inner
	// roughly fills Parallelism: a lone general-setting pair gets the
	// whole budget, many pairs each run their enumeration on one worker.
	innerP := 1
	if nEval > 0 {
		innerP = opts.Parallelism / nEval
		if innerP < 1 {
			innerP = 1
		}
	}

	outcomes := make([]taskOutcome, len(sched))
	var cursor atomic.Int64
	var bound atomicMin
	bound.store(int64(len(sched)))
	work := func(w *pairWorker) {
		for {
			t := int(cursor.Add(1) - 1)
			if t >= len(sched) {
				return
			}
			if int64(t) > bound.load() {
				outcomes[t].skipped = true
				continue
			}
			// Stop controls are observed before a task starts, so a pair
			// never half-counts; the bound makes every later entry skip,
			// so the assembly sees the stop at the lowest schedule index
			// that observed it.
			if r := opts.stopCheck(); r != StopNone {
				outcomes[t].stopped = r
				bound.min(int64(t))
				continue
			}
			task := sched[t]
			if task.kind == taskEmptyFirst || task.kind == taskEmptySecond {
				continue // zero outcome: counts one pair, nothing else
			}
			if opts.txn != nil {
				if e, hit := opts.txn.lookupPair(km.phiKey, taskCode(task), opts.WantCounterexample); hit {
					if e.unrealizable {
						// Like the fresh discovery: propagated, no
						// counters — only the tableau builds are saved.
						outcomes[t] = taskOutcome{}
						continue
					}
					outcomes[t] = taskOutcome{
						memoHit:   true,
						refuted:   e.refuted,
						insts:     e.insts,
						truncated: e.truncated,
						cex:       e.cex,
					}
					if e.refuted {
						bound.min(int64(t))
					}
					continue
				}
			}
			if w == nil {
				var err error
				if w, err = newPairWorker(db); err != nil {
					outcomes[t].err = err
					bound.min(int64(t))
					continue
				}
				w.attach(opts)
			}
			outcomes[t] = safeRunEvalTask(w, db, view, sigmaN, phi, opts, task, t, &bound, innerP)
			if outcomes[t].err != nil || outcomes[t].refuted {
				bound.min(int64(t))
			}
		}
	}
	// The calling goroutine is always one of the workers; with
	// Parallelism 1 it is the only one, and no goroutine is started.
	if outer := min(opts.Parallelism, len(sched)); outer > 1 {
		var wg sync.WaitGroup
		wg.Add(outer - 1)
		for n := 1; n < outer; n++ {
			go func() {
				defer wg.Done()
				work(nil)
			}()
		}
		work(scout)
		wg.Wait()
	} else {
		work(scout)
	}

	// Replay the nested loop's accumulation over the outcomes: counters
	// advance in schedule order and stop at the first refutation or error,
	// exactly where the loop returns. Entries past the final bound are
	// skipped and contribute nothing. Memo stores also happen here, in
	// schedule order over exactly the consumed entries, so the memo ends a
	// call with the same contents at every worker count.
	res := &Result{Propagated: true}
	for t := range outcomes {
		o := &outcomes[t]
		if o.skipped {
			continue
		}
		if o.stopped != StopNone {
			// The stop fired before this pair started: it contributes no
			// counters.
			res.Stopped = o.stopped
			return res, nil
		}
		res.PairsChecked++
		res.Instantiations += o.insts
		if o.truncated {
			res.Truncated = true
		}
		if o.memoHit {
			res.MemoHits++
		}
		if o.err != nil {
			if r := stopReasonOf(o.err); r != StopNone {
				// Stop mid-pair: the pair's partial counters stand.
				res.Stopped = r
				return res, nil
			}
			return nil, o.err
		}
		if o.evaluated && opts.txn != nil {
			res.MemoMisses++
			opts.txn.storePair(km.phiKey, taskCode(sched[t]), &memoPairEntry{
				refuted:   o.refuted,
				insts:     o.insts,
				truncated: o.truncated,
				cex:       o.cex,
			})
		} else if o.unrealizable && opts.txn != nil {
			opts.txn.storePair(km.phiKey, taskCode(sched[t]), &memoPairEntry{unrealizable: true})
		}
		if o.refuted {
			res.Propagated = false
			if opts.WantCounterexample {
				res.Counterexample = o.cex
			}
			return res, nil
		}
	}
	return res, nil
}

// taskCode is a schedule entry's pair code in the memo's φ bucket.
func taskCode(task pairTask) uint32 {
	if task.kind == taskEquality {
		return eqCode(task.i)
	}
	return pairCode(task.i, task.j)
}

// safeRunEvalTask is runEvalTask behind the faultinject seam and a panic
// boundary: a panicking worker surfaces as a parutil.PanicError on its
// schedule entry (ordered against refutations by the bound/assembly logic
// like any other error) instead of crashing the process.
func safeRunEvalTask(w *pairWorker, db *rel.DBSchema, view *algebra.SPCU, sigmaN []*cfd.CFD, phi *cfd.CFD, opts Options, task pairTask, taskIdx int, bound *atomicMin, innerP int) (out taskOutcome) {
	defer func() {
		if r := recover(); r != nil {
			out = taskOutcome{err: parutil.Recovered(fmt.Sprintf("propagation: worker panic on schedule entry %d", taskIdx), r)}
		}
	}()
	faultinject.Hit(faultinject.SitePropWorker)
	return runEvalTask(w, db, view, sigmaN, phi, opts, task, taskIdx, bound, innerP)
}

// prepareTask builds the task's pair state in w and returns its verdict;
// ok is false when the premise is unrealizable (the task propagates
// trivially). The construction sequence is identical on every worker, so
// enumeration plans and counterexamples are reproducible.
func prepareTask(w *pairWorker, db *rel.DBSchema, view *algebra.SPCU, phi *cfd.CFD, task pairTask) (verdict func() bool, ok bool, err error) {
	w.reset()
	if task.kind == taskEquality {
		t, outcome, err := prepareEquality(w, db, view.Disjuncts[task.i])
		if err != nil || outcome != prepOK {
			return nil, false, err
		}
		return equalityVerdict(w, t, phi.LHS[0].Attr, phi.RHS[0].Attr), true, nil
	}
	t1, t2, outcome, err := preparePair(w, db, view.Disjuncts[task.i], view.Disjuncts[task.j], phi)
	if err != nil || outcome != prepOK {
		// Empty outcomes cannot occur: the schedule only emits taskPair
		// for disjuncts known non-empty. Unrealizable premises propagate.
		return nil, false, err
	}
	return pairVerdict(w, t1, t2, phi.RHS[0]), true, nil
}

// runEvalTask runs one taskPair/taskEquality entry, fanning the
// general-setting enumeration across innerP sub-workers when profitable.
func runEvalTask(w *pairWorker, db *rel.DBSchema, view *algebra.SPCU, sigmaN []*cfd.CFD, phi *cfd.CFD, opts Options, task pairTask, taskIdx int, bound *atomicMin, innerP int) taskOutcome {
	verdict, ok, err := prepareTask(w, db, view, phi, task)
	if err != nil {
		return taskOutcome{err: err}
	}
	if !ok {
		// Premise unrealizable: propagated, no insts. Flag it for the
		// assembly's memo store (pair tasks only — an equality task cannot
		// be unrealizable, its premise has no cross-tableau equations).
		return taskOutcome{unrealizable: task.kind == taskPair}
	}

	// The infinite-domain setting, and a general-setting pair with no
	// finite root to enumerate (its one instantiation), chase once.
	var plan enumPlan
	insts := 0
	if opts.General {
		var emptyDomain bool
		if plan, emptyDomain = planEnumeration(w.st, opts.MaxInstantiations); emptyDomain {
			return taskOutcome{}
		}
		insts = 1
	}
	if len(plan.roots) == 0 {
		ok, err := evaluate(w, sigmaN, verdict)
		if err != nil {
			return taskOutcome{err: err}
		}
		if ok {
			return taskOutcome{insts: insts, evaluated: true}
		}
		return refutedOutcome(w, db, opts, insts)
	}

	// Decide the fan-out: splitting is only worth a tableau rebuild per
	// sub-worker when the range is long enough.
	chunks := max(min(innerP, plan.limit/minChunk), 1)
	out := scanPlan(w, verdict, db, view, sigmaN, phi, opts, task, plan, taskIdx, bound, chunks)
	if !out.skipped {
		out.evaluated = true
	}
	return out
}

// minChunk is the smallest instantiation range worth a dedicated
// sub-worker (each one rebuilds the pair's tableaux once).
const minChunk = 8

// refutedOutcome captures a refutation found in w's current state.
func refutedOutcome(w *pairWorker, db *rel.DBSchema, opts Options, insts int) taskOutcome {
	o := taskOutcome{refuted: true, insts: insts, evaluated: true}
	if opts.WantCounterexample {
		if witness, err := w.ci.Concrete(db, true); err == nil {
			o.cex = witness
		}
	}
	return o
}

// chunkResult is one contiguous index range's contribution.
type chunkResult struct {
	count   int // applicable assignments examined; a prefix count when stopped
	stopIdx int // lowest refuting/erroring index in the range, -1 if none
	stopErr error
	cex     *rel.Database
	aborted bool // outer cancellation fired mid-range
}

// scanPlan splits the enumeration into contiguous chunks, one worker
// each: w scans the first chunk with its prepared state, and every other
// chunk gets a sub-worker on its own goroutine (none when chunks is 1).
// Every sub-worker rebuilds the pair state independently (identical
// construction ⇒ identical variable layout, so index decoding agrees
// across workers) and scans its range in ascending order, stopping at the
// range's first refutation. A shared inner bound cancels indexes above the
// lowest refutation found so far; indexes at or below the final bound are
// never skipped, which keeps the applicable-assignment count and the
// winning counterexample exact. The outer bound cancels the whole task
// when a lower schedule index refutes.
func scanPlan(w *pairWorker, verdict func() bool, db *rel.DBSchema, view *algebra.SPCU, sigmaN []*cfd.CFD, phi *cfd.CFD, opts Options, task pairTask, plan enumPlan, taskIdx int, bound *atomicMin, chunks int) taskOutcome {
	results := make([]chunkResult, chunks)
	var inner atomicMin
	inner.store(int64(plan.limit))
	var wg sync.WaitGroup
	wg.Add(chunks - 1)
	for c := 1; c < chunks; c++ {
		go func(c int) {
			defer wg.Done()
			// A panic in a sub-worker becomes a stop event at the chunk's
			// first index, so assembly treats it as an error there instead
			// of deadlocking or crashing.
			defer func() {
				if r := recover(); r != nil {
					lo := chunkLo(plan.limit, chunks, c)
					results[c] = chunkResult{stopIdx: lo, stopErr: parutil.Recovered("propagation: enumeration worker panic", r)}
					inner.min(int64(lo))
				}
			}()
			cw, err := newPairWorker(db)
			if err != nil {
				results[c] = chunkResult{stopIdx: chunkLo(plan.limit, chunks, c), stopErr: err}
				inner.min(int64(results[c].stopIdx))
				return
			}
			cw.attach(opts)
			cverdict, ok, err := prepareTask(cw, db, view, phi, task)
			if err != nil {
				results[c] = chunkResult{stopIdx: chunkLo(plan.limit, chunks, c), stopErr: err}
				inner.min(int64(results[c].stopIdx))
				return
			}
			if !ok {
				// Unreachable: the owning task already realized the premise.
				results[c] = chunkResult{stopIdx: -1}
				return
			}
			results[c] = scanFactorised(cw, db, opts, plan, sigmaN, cverdict, chunkLo(plan.limit, chunks, c), chunkLo(plan.limit, chunks, c+1), taskIdx, bound, &inner)
		}(c)
	}
	// The owning worker takes the first chunk with its already-prepared
	// state and verdict — no rebuild.
	results[0] = scanFactorised(w, db, opts, plan, sigmaN, verdict, 0, chunkLo(plan.limit, chunks, 1), taskIdx, bound, &inner)
	wg.Wait()

	// Assemble: find the lowest stop event; applicable counts accumulate
	// over the ranges strictly below it plus the owner's prefix.
	for _, r := range results {
		if r.aborted {
			return taskOutcome{skipped: true}
		}
	}
	out := taskOutcome{}
	stop := -1
	for c := range results {
		if results[c].stopIdx >= 0 {
			stop = c
			break // chunks are in ascending range order
		}
	}
	if stop < 0 {
		for c := range results {
			out.insts += results[c].count
		}
		out.truncated = plan.capped
		return out
	}
	for c := 0; c < stop; c++ {
		out.insts += results[c].count
	}
	out.insts += results[stop].count
	if results[stop].stopErr != nil {
		out.err = results[stop].stopErr
		return out
	}
	out.refuted = true
	out.cex = results[stop].cex
	return out
}

// chunkLo is the start of chunk c when limit splits into even chunks.
func chunkLo(limit, chunks, c int) int {
	return c * limit / chunks
}
