package core

import (
	"context"
	"errors"

	"cfdprop/internal/algebra"
	"cfdprop/internal/cfd"
	"cfdprop/internal/implication"
	"cfdprop/internal/parutil"
	"cfdprop/internal/propagation"
	"cfdprop/internal/rel"
)

// CoverSession is the one cover implementation: PropCFDSPC and
// PropCFDSPCU are a CoverSession used once, and the daemon keeps one per
// universe so that a propagation cover is repaired across Σ edits instead
// of rebuilt. It holds, per disjunct, the per-relation MinCover bucket
// cache of Fig. 2 line 1 (a Σ edit re-covers only the touched relation's
// bucket; every other bucket replays its cached cover) and the line 2-13
// tail result keyed by the covered Σ (when an edit does not change the
// covered Σ reaching a disjunct — e.g. it touches a relation the disjunct
// does not embed — the whole tail is skipped), plus the persistent warm
// line-1 implication sessions, whose compiled buffers live across edits.
//
// A warm session's results are byte-identical to a cold one's: every
// cache is keyed by the exact input of a deterministic stage (compared
// member by member, see sameCFDs), and a cache miss runs the code a cold
// session runs. The only fields that may differ are UnionResult's
// MemoHits/MemoMisses, which reflect the memo state of the computing run.
//
// A CoverSession is not safe for concurrent use; callers (the daemon entry
// lock) must serialize access. Returned results are shared with the cache
// and must be treated as read-only.
type CoverSession struct {
	db         *rel.DBSchema
	view       *algebra.SPCU
	viewSchema *rel.Schema
	opts       Options

	disjuncts []*coverSPC

	memo   *propagation.Memo
	lastIn []*cfd.CFD // the normalized Σ last was computed from
	last   *UnionResult

	// lastSigma is the normalized Σ the memo's entries are scoped to; Cover
	// migrates the memo across DiffSigma(lastSigma, Σ') before consulting
	// it. carry accumulates the migration tallies.
	lastSigma []*cfd.CFD
	carry     propagation.CarryStats
}

// coverSPC is one disjunct's incremental PropCFDSPC state.
type coverSPC struct {
	view       *algebra.SPC
	viewSchema *rel.Schema
	buckets    map[string]*bucketEntry
	lastIn     []*cfd.CFD // the covered Σ last was computed from
	last       *Result
}

// bucketEntry caches one source relation's line-1 MinCover: the bucket it
// was computed from, the cover, and the persistent implication session
// (with its tombstone buffers) that computes it.
type bucketEntry struct {
	in    []*cfd.CFD
	cover []*cfd.CFD
	sess  *implication.Session
}

// NewCoverSession compiles a (db, view) pair for incremental covering.
// opts fixes the algorithm knobs for the session's lifetime, Parallelism
// included (Context is overridden per call; Memo is the initial memo, see
// SetMemo).
func NewCoverSession(db *rel.DBSchema, view *algebra.SPCU, opts Options) (*CoverSession, error) {
	if err := view.Validate(db); err != nil {
		return nil, err
	}
	viewSchema, err := view.ViewSchema(db)
	if err != nil {
		return nil, err
	}
	cs := &CoverSession{db: db, view: view, viewSchema: viewSchema, opts: opts, memo: opts.Memo}
	for _, d := range view.Disjuncts {
		ds, err := d.ViewSchema(db)
		if err != nil {
			return nil, err
		}
		cs.disjuncts = append(cs.disjuncts, &coverSPC{
			view:       d,
			viewSchema: ds,
			buckets:    make(map[string]*bucketEntry),
		})
	}
	return cs, nil
}

// SetMemo installs the §3 memo the union candidate filter consults. The
// memo must be scoped to the Σ of the session's last Cover call (or the
// session must be fresh); subsequent edits migrate it automatically.
func (cs *CoverSession) SetMemo(m *propagation.Memo) { cs.memo = m }

// RebaseMemo installs a memo already migrated to sigma's scope. The
// daemon's Σ edits (PUT and PATCH) migrate the entry memo once (it is
// shared with the check endpoint) and rebase the transferred session on
// the result, so the next Cover call sees an empty DiffSigma and does not
// migrate a second time.
func (cs *CoverSession) RebaseMemo(m *propagation.Memo, sigma []*cfd.CFD) {
	cs.memo = m
	cs.lastSigma = append([]*cfd.CFD(nil), cfd.NormalizeAll(sigma)...)
}

// CarryStats returns the cumulative memo-migration tallies over every Σ
// edit this session absorbed — the carryover counters the daemon surfaces
// on /statusz.
func (cs *CoverSession) CarryStats() propagation.CarryStats { return cs.carry }

// MemoStats snapshots the session's memo.
func (cs *CoverSession) MemoStats() propagation.MemoStats { return cs.memo.Stats() }

// errFiniteAttrs rejects schemas outside §4's infinite-domain setting.
var errFiniteAttrs = errors.New("core: schema has finite-domain attributes; §4 assumes their absence (set Options.AllowFiniteDomains to force)")

// sameCFDs reports whether two CFD lists are equal member by member, in
// order. Stage outputs are order-deterministic, so this is an exact input
// key. An unchanged member is usually the same *CFD on both sides, so the
// pointer comparison settles most members without rendering them.
func sameCFDs(a, b []*cfd.CFD) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}

// CoverDisjunct computes disjunct i's minimal propagation cover, Fig. 2 on
// the session's caches: PropCFDSPC(db, view.Disjuncts[i], sigma, opts) is
// this call on a fresh session.
func (cs *CoverSession) CoverDisjunct(ctx context.Context, i int, sigma []*cfd.CFD) (*Result, error) {
	opts := cs.opts
	opts.Context = ctx
	if cs.db.HasFiniteAttr() && !opts.AllowFiniteDomains {
		return nil, errFiniteAttrs
	}
	if err := cfd.ValidateAll(sigma, cs.db); err != nil {
		return nil, err
	}
	return cs.disjuncts[i].cover(cs.db, cfd.NormalizeAll(sigma), opts)
}

// cover runs one disjunct's PropCFDSPC with the bucket cache and the
// cached tail. sigma is normalized and validated.
func (d *coverSPC) cover(db *rel.DBSchema, sigma []*cfd.CFD, opts Options) (*Result, error) {
	covered := sigma
	if !opts.SkipPreMinCover {
		var err error
		covered, err = d.minCoverBuckets(optContext(opts), db, sigma, optParallelism(opts))
		if err != nil {
			return nil, err
		}
	}
	if d.last != nil && sameCFDs(d.lastIn, covered) {
		return d.last, nil
	}
	res, err := propSPCTail(db, d.view, d.viewSchema, covered, opts)
	if err != nil {
		return nil, err
	}
	// Under SkipPreMinCover, covered may be the caller's own slice, which
	// the caller may edit in place; the key is a private copy.
	d.lastIn, d.last = append([]*cfd.CFD(nil), covered...), res
	return res, nil
}

// minCoverBuckets is Fig. 2 line 1, Σ := MinCover(Σ), one implication
// session per source relation. A bucket whose contents match the previous
// call's (member by member, in order) replays its cached cover. The
// changed buckets are independent, so they fan out over par workers; each
// re-covers on its bucket's persistent session, minted by the worker that
// first runs it. The output keeps the first-appearance relation order,
// covered CFDs per bucket.
func (d *coverSPC) minCoverBuckets(ctx context.Context, db *rel.DBSchema, sigma []*cfd.CFD, par int) ([]*cfd.CFD, error) {
	byRel := make(map[string][]*cfd.CFD)
	var order []string
	for _, c := range sigma {
		if _, seen := byRel[c.Relation]; !seen {
			order = append(order, c.Relation)
		}
		byRel[c.Relation] = append(byRel[c.Relation], c)
	}
	var changed []string
	for _, r := range order {
		e := d.buckets[r]
		if e == nil {
			e = &bucketEntry{}
			d.buckets[r] = e
		}
		if !sameCFDs(e.in, byRel[r]) {
			changed = append(changed, r)
		}
	}
	errs := make([]error, len(changed))
	if err := parutil.DoCtx(ctx, len(changed), par, func(_, i int) {
		r := changed[i]
		e := d.buckets[r]
		if e.sess == nil {
			e.sess = implication.NewSession(implication.UniverseOf(db.Relation(r)))
		}
		e.sess.SetContext(ctx)
		cover, err := e.sess.MinCover(byRel[r])
		if err != nil {
			errs[i] = err // the bucket keeps its last complete cover
			return
		}
		e.in, e.cover = byRel[r], cover
	}); err != nil {
		// A worker may have panicked mid-query; the next call mints fresh
		// sessions for these buckets.
		for _, r := range changed {
			d.buckets[r].sess = nil
		}
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var out []*cfd.CFD
	for _, r := range order {
		out = append(out, d.buckets[r].cover...)
	}
	return out, nil
}

// Cover computes the union view's propagation cover — PropCFDSPCU's
// method (see there), over the cached incremental disjunct results —
// repairing per-disjunct covers and replaying memoised candidate verdicts
// across edits. For an unchanged Σ the previous UnionResult is returned
// outright.
func (cs *CoverSession) Cover(ctx context.Context, sigma []*cfd.CFD) (*UnionResult, error) {
	opts := cs.opts
	opts.Context = ctx
	if cs.db.HasFiniteAttr() && !opts.AllowFiniteDomains {
		return nil, errFiniteAttrs
	}
	if err := cfd.ValidateAll(sigma, cs.db); err != nil {
		return nil, err
	}
	sigmaN := cfd.NormalizeAll(sigma)
	if cs.last != nil && sameCFDs(cs.lastIn, sigmaN) {
		return cs.last, nil
	}
	// NormalizeAll may return the caller's slice, which the caller may edit
	// in place between calls; the session keys on a private copy.
	sigmaN = append([]*cfd.CFD(nil), sigmaN...)

	// Migrate the memo across the Σ edit: verdicts whose pairs the edit
	// provably cannot affect carry forward; the rest recompute as misses.
	// The scope (lastSigma) advances before the checks run, so entries the
	// checks store are scoped to the Σ they were computed under even if
	// this call errors out part-way.
	if cs.memo != nil && cs.lastSigma != nil {
		if edit := propagation.DiffSigma(cs.lastSigma, sigmaN); !edit.Empty() {
			var st propagation.CarryStats
			cs.memo, st = cs.memo.Migrate(cs.view, edit)
			cs.carry.PairsCarried += st.PairsCarried
			cs.carry.PairsDropped += st.PairsDropped
			cs.carry.EmptyCarried += st.EmptyCarried
			cs.carry.EmptyDropped += st.EmptyDropped
		}
	}
	cs.lastSigma = sigmaN

	// Candidate pool from the per-disjunct covers: each cover CFD, plus a
	// variant guarded by its disjunct's constant columns.
	var candidates []*cfd.CFD
	for _, d := range cs.disjuncts {
		res, err := d.cover(cs.db, sigmaN, opts)
		if err != nil {
			return nil, err
		}
		if res.AlwaysEmpty {
			continue
		}
		var guards []cfd.Item
		for _, c := range res.Cover {
			if attr, val, ok := c.IsConstant(); ok {
				guards = append(guards, cfd.Item{Attr: attr, Pat: cfd.Eq(val)})
			}
		}
		for _, c := range res.Cover {
			candidates = append(candidates, c)
			if c.Equality || len(guards) == 0 {
				continue
			}
			g := c.Clone()
			for _, gu := range guards {
				if !g.Mentions(gu.Attr) {
					g.LHS = append(g.LHS, gu)
				}
			}
			if !g.IsTrivial() {
				candidates = append(candidates, g)
			}
		}
	}
	candidates = cfd.Dedup(candidates)

	// Exact filtering on the union (PTIME in the infinite-domain setting,
	// Theorem 3.5). Each candidate's §3 check fans its own pair loop out
	// over Options.Parallelism workers. The checks share a memo: the
	// candidates differ only in φ, so the pair-emptiness results and most
	// pair verdicts computed for one candidate replay for the next.
	memo := cs.memo
	if memo == nil {
		memo = propagation.NewMemo()
		cs.memo = memo
	}
	var kept []*cfd.CFD
	var memoHits, memoMisses int
	// Validated once at session compile (view) and call entry (Σ); the
	// candidates are covers over the view schema by construction.
	for _, c := range candidates {
		r, err := propagation.Check(cs.db, cs.view, sigmaN, c, propagation.Options{
			Parallelism: opts.Parallelism, Context: opts.Context, Memo: memo, Prevalidated: true,
		})
		if err != nil {
			return nil, err
		}
		memoHits += r.MemoHits
		memoMisses += r.MemoMisses
		if r.Stopped != propagation.StopNone {
			// Only Context flows down from here, so a stop means the caller
			// cancelled; surface it as their context's error.
			if opts.Context != nil {
				return nil, opts.Context.Err()
			}
			return nil, context.Canceled
		}
		if r.Propagated {
			kept = append(kept, c)
		}
	}
	cover, err := implication.ParallelMinCover(opts.Context, implication.UniverseOf(cs.viewSchema), kept, optParallelism(opts))
	if err != nil {
		return nil, err
	}
	res := &UnionResult{
		Cover:      cover,
		ViewSchema: cs.viewSchema,
		Candidates: len(candidates),
		MemoHits:   memoHits,
		MemoMisses: memoMisses,
	}
	cs.lastIn, cs.last = sigmaN, res
	return res, nil
}
