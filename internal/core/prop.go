package core

import (
	"context"
	"runtime"

	"cfdprop/internal/algebra"
	"cfdprop/internal/cfd"
	"cfdprop/internal/implication"
	"cfdprop/internal/propagation"
	"cfdprop/internal/rel"
)

// Options tunes PropCFDSPC. The zero value follows the paper's Fig. 2.
type Options struct {
	// Context, when non-nil, cancels the computation cooperatively: the
	// implication sessions driving MinCover and RBR poll it inside their
	// worklist chases, and the per-relation / per-block fan-outs stop
	// claiming work once it is done. On cancellation the call returns the
	// context's error. nil means no cancellation.
	Context context.Context
	// SkipPreMinCover skips the initial Σ := MinCover(Σ) (Fig. 2 line 1);
	// exposed for the ablation benchmarks.
	SkipPreMinCover bool
	// RBRBlockSize is the block size for intermediate MinCover pruning
	// inside RBR (§4.3). 0 selects DefaultRBRBlockSize, < 0 disables.
	RBRBlockSize int
	// DropOrder selects the attribute elimination order inside RBR.
	DropOrder DropOrder
	// MaxCoverSize, when > 0, switches to the polynomial-time heuristic of
	// §1: once the working set exceeds the bound, no further resolvents
	// are generated and the result is a subset of a cover (Truncated set).
	MaxCoverSize int
	// AllowFiniteDomains permits running on schemas with finite-domain
	// attributes. §4 assumes their absence; with this flag the algorithm
	// treats every domain as infinite, which keeps the output sound as a
	// set of propagated CFDs but may miss CFDs that hold only for
	// finite-domain reasons (the general-setting cover problem is open,
	// §7). Off by default: such schemas are rejected.
	AllowFiniteDomains bool
	// SkipFinalMinCover returns Σc ∪ Σd without the last MinCover call
	// (Fig. 2 line 13); exposed for the ablation benchmarks.
	SkipFinalMinCover bool
	// Parallelism is the number of workers the independent sub-problems
	// fan out over: the per-relation pre-MinCover of every changed bucket,
	// RBR's block-wise pruning, the final MinCover's reduction and
	// redundancy screen (implication.ParallelMinCover), and (through
	// PropCFDSPCU) the §3 decision procedure. A CoverSession fixes it at
	// its construction. 0 selects runtime.GOMAXPROCS(0); 1 runs each of
	// them on one worker, on the same code. The output is identical at
	// every setting.
	Parallelism int
	// Memo, when non-nil, caches §3 pair verdicts and pair-emptiness
	// results across the union-candidate checks of PropCFDSPCU — the
	// candidates share most of their tableau pairs, so later checks replay
	// earlier verdicts instead of re-chasing. A Memo is scoped to one
	// (schema, Σ, V) triple: callers reusing one across calls must discard
	// it whenever any of the three changes (see propagation.Memo). nil
	// gives each PropCFDSPCU call a private memo.
	Memo *propagation.Memo
}

// DefaultRBRBlockSize is the default block size for intermediate pruning.
const DefaultRBRBlockSize = 64

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
	// EQ is the computed attribute equivalence relation (diagnostic).
	EQ *EQ
}

// PropCFDSPC computes a minimal cover of all CFDs propagated from Σ via
// the SPC view (Fig. 2). Σ may contain FDs (all-wildcard CFDs) or CFDs on
// the source relations; the infinite-domain setting is assumed. It is a
// CoverSession used once: CoverSession.CoverDisjunct runs line 1 and
// propSPCTail lines 2-13. The view is validated as an SPC query first, so
// its errors read as they do for an SPC view, not a one-disjunct union.
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
// output). The tail is a pure function of (db, view, sigma, opts), so
// CoverSession replays its cached result for an unchanged sigma. The line
// 13 MinCover fans out over Options.Parallelism workers; its output is
// deterministic in (universe, input) at every worker count.
func propSPCTail(db *rel.DBSchema, view *algebra.SPC, viewSchema *rel.Schema, sigma []*cfd.CFD, opts Options) (*Result, error) {
	blockSize := opts.RBRBlockSize
	if blockSize == 0 {
		blockSize = DefaultRBRBlockSize
	}
	par := optParallelism(opts)
	ctx := optContext(opts)

	// Lines 5-6 (done before ComputeEQ, which consumes the renamed CFDs):
	// handle the Cartesian product by renaming every source CFD along each
	// relation atom it applies to.
	sigmaV, err := renameToView(db, view, sigma)
	if err != nil {
		return nil, err
	}

	// Line 2: EQ := ComputeEQ(Es, Σ).
	eq, err := ComputeEQ(view, sigmaV)
	if err != nil {
		return nil, err
	}
	// Lines 3-4: inconsistency means the view is always empty; return the
	// Lemma 4.5 pair of conflicting CFDs.
	if eq.Inconsistent {
		return &Result{
			Cover:       lemma45Pair(view),
			ViewSchema:  viewSchema,
			AlwaysEmpty: true,
			EQ:          eq,
		}, nil
	}

	// Lines 7-10: apply the domain constraints, substituting class
	// representatives (preferring projected attributes) and discharging
	// keyed entries.
	prefer := make(map[string]bool, len(view.Projection))
	for _, y := range view.Projection {
		prefer[y] = true
	}
	esAttrs := view.EsAttrs()
	rep := eq.Rep(esAttrs, prefer)
	var reduced []*cfd.CFD
	for _, c := range sigmaV {
		if r := ApplyEQ(c, eq, rep); r != nil {
			reduced = append(reduced, r)
		}
	}
	reduced = cfd.Dedup(reduced)

	// Line 11: Σc := RBR(ΣV, attr(Es) − Y).
	workspace := workspaceUniverse(db, view)
	projected := make(map[string]bool, len(view.Projection))
	for _, y := range view.Projection {
		projected[y] = true
	}
	var dropAttrs []string
	for _, a := range esAttrs {
		if !projected[a] {
			dropAttrs = append(dropAttrs, a)
		}
	}
	cfg := rbrConfig{ctx: ctx, order: opts.DropOrder, blockSize: blockSize, maxCover: opts.MaxCoverSize, parallelism: par}
	sigmaC, truncated, err := runRBR(workspace, reduced, dropAttrs, cfg)
	if err != nil {
		return nil, err
	}

	// Line 12: Σd := EQ2CFD(EQ) over the projected attributes, plus the
	// constant-relation CFDs for Rc (§4.2 "Basic results").
	sigmaD := EQ2CFD(view.Name, eq, projectedEsAttrs(view))
	for _, c := range view.Consts {
		sigmaD = append(sigmaD, cfd.NewConstant(view.Name, c.Attr, c.Value))
	}

	// Line 13: return MinCover(Σc ∪ Σd).
	all := cfd.Dedup(append(append([]*cfd.CFD{}, sigmaC...), sigmaD...))
	if !opts.SkipFinalMinCover {
		if all, err = implication.ParallelMinCover(ctx, implication.UniverseOf(viewSchema), all, par); err != nil {
			return nil, err
		}
	}
	return &Result{Cover: all, ViewSchema: viewSchema, Truncated: truncated, EQ: eq}, nil
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

// projectedEsAttrs returns the projection attributes that come from Es
// (i.e. excluding constant-relation attributes), which is the attribute
// space EQ ranges over.
func projectedEsAttrs(view *algebra.SPC) []string {
	consts := make(map[string]bool, len(view.Consts))
	for _, c := range view.Consts {
		consts[c.Attr] = true
	}
	var out []string
	for _, y := range view.Projection {
		if !consts[y] {
			out = append(out, y)
		}
	}
	return out
}

// workspaceUniverse is the implication universe over attr(Es) with the
// view's relation name, used by RBR's intermediate MinCover pruning.
func workspaceUniverse(db *rel.DBSchema, view *algebra.SPC) implication.Universe {
	var attrs []rel.Attribute
	for _, atom := range view.Atoms {
		src := db.Relation(atom.Source)
		for i, a := range atom.Attrs {
			attrs = append(attrs, rel.Attribute{Name: a, Domain: src.Attrs[i].Domain})
		}
	}
	return implication.NewUniverse(view.Name, attrs)
}

// renameToView maps every source CFD along every relation atom over its
// relation: a CFD on S contributes one renamed copy per atom ρj(S)
// (Fig. 2 lines 5-6).
func renameToView(db *rel.DBSchema, view *algebra.SPC, sigma []*cfd.CFD) ([]*cfd.CFD, error) {
	bySource := make(map[string][]*cfd.CFD)
	for _, c := range sigma {
		bySource[c.Relation] = append(bySource[c.Relation], c)
	}
	var out []*cfd.CFD
	for _, atom := range view.Atoms {
		src := db.Relation(atom.Source)
		nameOf := make(map[string]string, src.Arity())
		for i, a := range src.AttrNames() {
			nameOf[a] = atom.Attrs[i]
		}
		for _, c := range bySource[atom.Source] {
			out = append(out, c.Rename(view.Name, func(a string) string {
				n, ok := nameOf[a]
				if !ok {
					// Validated earlier; defensive.
					return a
				}
				return n
			}))
		}
	}
	return cfd.Dedup(out), nil
}

// IsPropagated decides whether a view CFD φ is propagated, given a
// previously computed propagation cover: Σ |=V φ iff Cover |= φ (§4
// opening remarks). The infinite-domain setting is assumed.
func (r *Result) IsPropagated(phi *cfd.CFD) (bool, error) {
	return implication.Implies(implication.UniverseOf(r.ViewSchema), r.Cover, phi)
}
