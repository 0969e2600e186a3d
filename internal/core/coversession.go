package core

import (
	"context"
	"fmt"
	"strings"

	"cfdprop/internal/algebra"
	"cfdprop/internal/cfd"
	"cfdprop/internal/implication"
	"cfdprop/internal/propagation"
	"cfdprop/internal/rel"
)

// CoverSession is the incremental face of PropCFDSPC/PropCFDSPCU: one
// compiled (db, view) pair whose propagation cover is repaired across Σ
// edits instead of rebuilt. It holds, per disjunct, the per-relation
// MinCover bucket cache of Fig. 2 line 1 (a Σ edit re-covers only the
// touched relation's bucket; every other bucket replays its cached cover)
// and the line 2-13 tail result keyed by the covered Σ (when an edit does
// not change the covered Σ reaching a disjunct — e.g. it touches a
// relation the disjunct does not embed — the whole tail is skipped), plus
// persistent warm implication sessions whose compiled buffers and
// tombstone masks live across edits.
//
// Results are byte-identical to the one-shot algorithms by construction:
// every cache is keyed by the exact input of a deterministic stage, and
// cache misses run the same code (propSPCTail, Session.MinCover) the
// one-shot path runs — PropCFDSPCU is a CoverSession used once. The only
// fields that may differ are UnionResult's MemoHits/MemoMisses, which
// reflect the memo state of the computing run.
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

	memo      *propagation.Memo
	finalSess *implication.Session // union final MinCover, warm across edits
	lastFP    string
	last      *UnionResult

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
	finalSess  *implication.Session
	lastFP     string
	last       *Result
}

// bucketEntry caches one source relation's line-1 MinCover: the bucket
// fingerprint it was computed from, the cover, and the persistent
// implication session (with its tombstone buffers) that computes it.
type bucketEntry struct {
	fp    string
	cover []*cfd.CFD
	sess  *implication.Session
}

// NewCoverSession compiles a (db, view) pair for incremental covering.
// opts fixes the algorithm knobs for the session's lifetime (Context is
// overridden per call; Memo via SetMemo).
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

// RebaseMemo installs a memo already migrated to sigma's scope. The daemon
// PATCH path migrates the entry memo once (it is shared with the check
// endpoint) and rebases the transferred session on the result, so the next
// Cover call sees an empty DiffSigma and does not migrate a second time.
func (cs *CoverSession) RebaseMemo(m *propagation.Memo, sigma []*cfd.CFD) {
	cs.memo = m
	cs.lastSigma = cfd.NormalizeAll(sigma)
}

// CarryStats returns the cumulative memo-migration tallies over every Σ
// edit this session absorbed — the carryover counters the daemon surfaces
// on /statusz.
func (cs *CoverSession) CarryStats() propagation.CarryStats { return cs.carry }

// MemoStats snapshots the session's memo.
func (cs *CoverSession) MemoStats() propagation.MemoStats { return cs.memo.Stats() }

// errFiniteAttrs is the same rejection PropCFDSPC/PropCFDSPCU raise.
func errFiniteAttrs() error {
	return fmt.Errorf("core: schema has finite-domain attributes; §4 assumes their absence (set Options.AllowFiniteDomains to force)")
}

// sigmaFP fingerprints an ordered CFD list. Stage outputs are
// order-deterministic, so string concatenation is an exact input key.
func sigmaFP(sigma []*cfd.CFD) string {
	var b strings.Builder
	for _, c := range sigma {
		b.WriteString(c.String())
		b.WriteByte(0)
	}
	return b.String()
}

// CoverDisjunct computes disjunct i's minimal propagation cover — the
// incremental equivalent of PropCFDSPC(db, view.Disjuncts[i], sigma, opts).
func (cs *CoverSession) CoverDisjunct(ctx context.Context, i int, sigma []*cfd.CFD) (*Result, error) {
	opts := cs.opts
	opts.Context = ctx
	if cs.db.HasFiniteAttr() && !opts.AllowFiniteDomains {
		return nil, errFiniteAttrs()
	}
	if err := cfd.ValidateAll(sigma, cs.db); err != nil {
		return nil, err
	}
	return cs.disjuncts[i].cover(cs.db, cfd.NormalizeAll(sigma), opts)
}

// cover runs one disjunct's PropCFDSPC with the bucket cache and the
// cached tail. sigma is normalized and validated.
func (d *coverSPC) cover(db *rel.DBSchema, sigma []*cfd.CFD, opts Options) (*Result, error) {
	ctx := optContext(opts)
	covered := sigma
	if !opts.SkipPreMinCover {
		var err error
		covered, err = d.minCoverBuckets(ctx, db, sigma)
		if err != nil {
			return nil, err
		}
	}
	fp := sigmaFP(covered)
	if d.last != nil && fp == d.lastFP {
		return d.last, nil
	}
	if d.finalSess == nil && !opts.SkipFinalMinCover {
		d.finalSess = implication.NewSession(implication.UniverseOf(d.viewSchema))
	}
	res, err := propSPCTail(db, d.view, d.viewSchema, covered, opts, d.finalSess)
	if err != nil {
		return nil, err
	}
	d.lastFP, d.last = fp, res
	return res, nil
}

// minCoverBuckets is minCoverPerRelation with a per-relation cache: a
// bucket whose contents (order-sensitively) match the previous edit's
// replays its cached cover; a changed bucket re-covers on its persistent
// warm session. Output order — first-appearance relation order, covered
// CFDs per bucket — is exactly minCoverPerRelation's.
func (d *coverSPC) minCoverBuckets(ctx context.Context, db *rel.DBSchema, sigma []*cfd.CFD) ([]*cfd.CFD, error) {
	byRel := make(map[string][]*cfd.CFD)
	var order []string
	for _, c := range sigma {
		if _, seen := byRel[c.Relation]; !seen {
			order = append(order, c.Relation)
		}
		byRel[c.Relation] = append(byRel[c.Relation], c)
	}
	var out []*cfd.CFD
	for _, r := range order {
		bucket := byRel[r]
		fp := sigmaFP(bucket)
		e := d.buckets[r]
		if e == nil {
			e = &bucketEntry{sess: implication.NewSession(implication.UniverseOf(db.Relation(r)))}
			d.buckets[r] = e
		}
		if e.cover == nil || e.fp != fp {
			e.sess.SetContext(ctx)
			cover, err := e.sess.MinCover(bucket)
			if err != nil {
				e.cover = nil // do not cache a partial cover
				return nil, err
			}
			e.fp, e.cover = fp, cover
		}
		out = append(out, e.cover...)
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
		return nil, errFiniteAttrs()
	}
	if err := cfd.ValidateAll(sigma, cs.db); err != nil {
		return nil, err
	}
	sigmaN := cfd.NormalizeAll(sigma)
	fp := sigmaFP(sigmaN)
	if cs.last != nil && fp == cs.lastFP {
		return cs.last, nil
	}

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
	if cs.finalSess == nil {
		cs.finalSess = implication.NewSession(implication.UniverseOf(cs.viewSchema))
	}
	cs.finalSess.SetContext(opts.Context)
	cover, err := cs.finalSess.MinCover(kept)
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
	cs.lastFP, cs.last = fp, res
	return res, nil
}
