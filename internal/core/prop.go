package core

import (
	"context"
	"runtime"
	"slices"

	"cfdprop/internal/algebra"
	"cfdprop/internal/cfd"
	"cfdprop/internal/implication"
	"cfdprop/internal/rel"
)

// Options tunes PropCFDSPC. The zero value follows the paper's Fig. 2.
type Options struct {
	// Context, when non-nil, cancels the computation cooperatively: the
	// implication sessions driving MinCover poll it at every closure
	// firing, RBR between elimination rounds, and the fan-outs stop
	// claiming work once it is done. On cancellation the call returns the
	// context's error. nil means no cancellation.
	Context context.Context
	// SkipPreMinCover skips the initial Σ := MinCover(Σ) (Fig. 2 line 1);
	// exposed for the ablation benchmarks.
	SkipPreMinCover bool
	// MaxCoverSize, when > 0, switches to the polynomial-time heuristic of
	// §1: once the working set exceeds the bound, no further resolvents
	// are generated and the result is a subset of a cover (Truncated set).
	MaxCoverSize int
	// SkipFinalMinCover returns Σc ∪ Σd without the last MinCover call
	// (Fig. 2 line 13); exposed for the ablation benchmarks.
	SkipFinalMinCover bool
	// Parallelism is the number of workers the independent sub-problems
	// fan out over: the per-relation pre-MinCover of every changed bucket
	// of a relation the view embeds (line 1), the final MinCover's
	// reduction and redundancy screen (line 13,
	// implication.ParallelMinCover), and (through PropCFDSPCU) the §3
	// decision procedure. Lines 2-12 run serially. A CoverSession fixes it
	// at its construction. 0 selects runtime.GOMAXPROCS(0); 1 runs each of
	// them on one worker, on the same code. The output is identical at
	// every setting.
	Parallelism int
}

// Result is the output of PropCFDSPC.
type Result struct {
	// Cover is a minimal propagation cover: a minimal set of view CFDs
	// whose implication closure is exactly CFDp(Σ, V).
	Cover []*cfd.CFD
	// ViewSchema is the schema of the view relation the cover is on.
	ViewSchema *rel.Schema
	// AlwaysEmpty reports that V (D) is empty for every D |= Σ; Cover then
	// holds the two conflicting CFDs of Lemma 4.5.
	AlwaysEmpty bool
	// Truncated reports that the MaxCoverSize heuristic fired and Cover is
	// a subset of a propagation cover.
	Truncated bool
}

// PropCFDSPC computes a minimal cover of all CFDs propagated from Σ via
// the SPC view (Fig. 2). Σ may contain FDs (all-wildcard CFDs) or CFDs on
// the source relations. The infinite-domain setting of §4 is assumed: a
// schema with finite-domain attributes is rejected. It is a
// CoverSession used once: CoverSession.CoverDisjunct runs line 1 and
// propSPCTail lines 2-13. Lines 2-12 run serially, on the view's
// attr(Es) positions and Σ's constant codes; lines 1 and 13 fan out over
// Options.Parallelism. Line 1 covers only the CFDs on relations that
// the view embeds: lines 5-6 rename no other CFD, and implication on one
// relation depends only on that relation's CFDs, so the cover is the same
// as if every relation were covered. All of Σ is still validated. The
// view is validated as an SPC query first, so its errors read as they do
// for an SPC view, not a one-disjunct union.
func PropCFDSPC(db *rel.DBSchema, view *algebra.SPC, sigma []*cfd.CFD, opts Options) (*Result, error) {
	if err := view.Validate(db); err != nil {
		return nil, err
	}
	cs, err := NewCoverSession(db, algebra.Single(view), opts)
	if err != nil {
		return nil, err
	}
	return cs.CoverDisjunct(opts.Context, 0, sigma)
}

// optParallelism resolves Options.Parallelism to an effective worker count.
func optParallelism(opts Options) int {
	par := opts.Parallelism
	if par == 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par < 1 {
		par = 1
	}
	return par
}

// optContext resolves Options.Context, defaulting to Background.
func optContext(opts Options) context.Context {
	if opts.Context != nil {
		return opts.Context
	}
	return context.Background()
}

// propSPCTail runs Fig. 2 lines 2-13 over an already-covered Σ (the line 1
// output, normalized) on the compiled view tv: lines 2-12 on positions and
// constant codes (tailView.run), then line 13 on the strings they come
// back as. The tail is a pure function of (view, sigma, opts), so
// CoverSession replays its cached result for an unchanged sigma. The line
// 13 MinCover fans out over Options.Parallelism workers; its output is
// deterministic in (universe, input) at every worker count.
func propSPCTail(tv *tailView, sigma []*cfd.CFD, opts Options) (*Result, error) {
	sets, err := tv.run(sigma, rbrConfig{ctx: optContext(opts), maxCover: opts.MaxCoverSize})
	if err != nil {
		return nil, err
	}
	return finishTail(tv, sets, opts)
}

// finishTail turns the output of lines 2-12 into the Result: the Lemma 4.5
// pair of conflicting CFDs when the view is always empty (lines 3-4), and
// MinCover(Σc ∪ Σd) otherwise (line 13).
func finishTail(tv *tailView, sets tailSets, opts Options) (*Result, error) {
	if sets.empty {
		return &Result{Cover: lemma45Pair(tv.view), ViewSchema: tv.viewSchema, AlwaysEmpty: true}, nil
	}
	all := cfd.Dedup(append(slices.Clip(sets.sigmaC), sets.sigmaD...))
	if !opts.SkipFinalMinCover {
		var err error
		if all, err = implication.ParallelMinCover(optContext(opts), implication.UniverseOf(tv.viewSchema), all, optParallelism(opts)); err != nil {
			return nil, err
		}
	}
	return &Result{Cover: all, ViewSchema: tv.viewSchema, Truncated: sets.truncated}, nil
}

// lemma45Pair synthesizes the two conflicting constant CFDs of Lemma 4.5
// that express "the view is always empty". A validated SPC view always
// projects at least one attribute, but callers that bypass validation (or
// future normal forms with empty projections) must not panic here: with no
// attribute to hang the conflict on, emptiness is reported through
// AlwaysEmpty alone.
func lemma45Pair(view *algebra.SPC) []*cfd.CFD {
	if len(view.Projection) == 0 {
		return nil
	}
	a := view.Projection[0]
	return []*cfd.CFD{
		cfd.NewConstant(view.Name, a, "0"),
		cfd.NewConstant(view.Name, a, "1"),
	}
}

// IsPropagated decides whether a view CFD φ is propagated, given a
// previously computed propagation cover: Σ |=V φ iff Cover |= φ (§4
// opening remarks). The infinite-domain setting is assumed.
func (r *Result) IsPropagated(phi *cfd.CFD) (bool, error) {
	return implication.Implies(implication.UniverseOf(r.ViewSchema), r.Cover, phi)
}
