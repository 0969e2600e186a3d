// Package chase implements the extended chase of Fan et al. (VLDB 2008,
// appendix): a fixpoint procedure that applies FDs and CFDs to a symbolic
// instance (rows of sym.Terms), equating terms and binding constants until
// nothing changes or the chase becomes undefined (a conflict).
//
// Chase rules, per CFD φ = R(X → Y, tp) and rows t, t' of R:
//
//   - pair rule (t may equal t'): when t[B] and t'[B] resolve to the same
//     term for every B ∈ X and that term definitely matches tp[B]
//     (constant patterns require the term to be that constant), equate
//     t[A] with t'[A] for every A ∈ Y and, when tp[A] is a constant, bind
//     both to it. The t = t' case is the paper's Case 2 single-tuple rule
//     for constant RHS patterns.
//
//   - equality rule, for the special CFDs R(A → B, (x ‖ x)): equate t[A]
//     and t[B] in every row t.
//
// The chase is sound and complete for reasoning about CFDs in the absence
// of finite-domain attributes; with finite domains the callers in
// internal/propagation enumerate instantiations first (Thm 3.2/3.3).
//
// The chase has one worklist loop, Resumable's: Run is that loop seeded
// with every dependency, and RunPrefix keeps it alive after the fixpoint
// so that per-assignment bindings can be chased by Extend and rolled back
// by Rewind.
package chase

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"cfdprop/internal/cfd"
	"cfdprop/internal/faultinject"
	"cfdprop/internal/rel"
	"cfdprop/internal/sym"
)

// ErrStepBudget is returned by Run and Extend when the shared step budget
// installed via SetControl is exhausted. Callers distinguish it from
// ErrUndefined: budget exhaustion means "stopped early", not "chase
// undefined".
var ErrStepBudget = errors.New("chase: step budget exhausted")

// Row is one symbolic tuple of a named source relation. Cols follow the
// attribute order of the relation schema the row belongs to.
type Row struct {
	Relation string
	Cols     []sym.Term
}

// Inst is a symbolic instance: rows grouped by relation plus the term
// state they live in.
type Inst struct {
	St   *sym.State
	rows map[string][]*Row
	// attrIdx caches attribute -> column maps per relation.
	attrIdx map[string]map[string]int

	// Cooperative stop controls, installed by SetControl. done is ctx.Done()
	// cached once; steps, when non-nil, is a shared budget decremented per
	// worklist pop (shared across the workers of one propagation.Check).
	ctx   context.Context
	done  <-chan struct{}
	steps *atomic.Int64
}

// NewInst creates an empty symbolic instance over the state.
func NewInst(st *sym.State) *Inst {
	return &Inst{
		St:      st,
		rows:    make(map[string][]*Row),
		attrIdx: make(map[string]map[string]int),
	}
}

// DeclareRelation registers the attribute order of a relation. It must be
// called before rows of that relation are added.
func (ci *Inst) DeclareRelation(name string, attrs []string) error {
	if _, dup := ci.attrIdx[name]; dup {
		return fmt.Errorf("chase: relation %q declared twice", name)
	}
	m := make(map[string]int, len(attrs))
	for i, a := range attrs {
		if _, dup := m[a]; dup {
			return fmt.Errorf("chase: relation %q: duplicate attribute %q", name, a)
		}
		m[a] = i
	}
	ci.attrIdx[name] = m
	return nil
}

// AddRow appends a symbolic row to the named relation.
func (ci *Inst) AddRow(relation string, cols []sym.Term) (*Row, error) {
	idx, ok := ci.attrIdx[relation]
	if !ok {
		return nil, fmt.Errorf("chase: relation %q not declared", relation)
	}
	if len(cols) != len(idx) {
		return nil, fmt.Errorf("chase: relation %q: row has %d columns, want %d", relation, len(cols), len(idx))
	}
	r := &Row{Relation: relation, Cols: cols}
	ci.rows[relation] = append(ci.rows[relation], r)
	return r, nil
}

// Rows returns the rows of a relation (nil when none).
func (ci *Inst) Rows(relation string) []*Row { return ci.rows[relation] }

// Reset drops every row while keeping the declared relations and the
// per-relation slice capacity, so pooled chase workers reuse one instance
// across many runs instead of re-declaring and re-allocating. The caller
// must also Reset the underlying sym.State — rows reference its variables.
func (ci *Inst) Reset() {
	for name, rows := range ci.rows {
		ci.rows[name] = rows[:0]
	}
}

// SetControl installs cooperative stop controls for subsequent Runs and
// Extends: a context checked periodically inside the worklist loop, and an
// optional shared step budget decremented once per worklist pop (Run and
// Extend return ErrStepBudget when it hits zero). Either may be nil to
// disable that control; SetControl(nil, nil) clears both. The instance
// stays fully reusable after a stopped Run (callers Reset/Restore state as
// usual).
func (ci *Inst) SetControl(ctx context.Context, steps *atomic.Int64) {
	ci.ctx = ctx
	ci.steps = steps
	if ctx != nil {
		ci.done = ctx.Done()
	} else {
		ci.done = nil
	}
}

// checkpoint enforces the installed controls at worklist pop qh; it is the
// single place the chase can stop early.
func (ci *Inst) checkpoint(qh int) error {
	faultinject.Hit(faultinject.SiteChaseStep)
	if ci.steps != nil && ci.steps.Add(-1) < 0 {
		return ErrStepBudget
	}
	// Polling the done channel has cost; amortize it, but always poll on the
	// first pop so short Runs still observe cancellation once per call.
	if ci.done != nil && (qh&63 == 0) {
		select {
		case <-ci.done:
			return ci.ctx.Err()
		default:
		}
	}
	return nil
}

// ErrUndefined wraps the conflict that made the chase undefined.
type ErrUndefined struct{ Cause error }

func (e ErrUndefined) Error() string { return "chase: undefined: " + e.Cause.Error() }
func (e ErrUndefined) Unwrap() error { return e.Cause }

// Run chases the instance with the given dependencies until fixpoint.
// It returns ErrUndefined when two distinct constants are equated (or a
// domain is emptied), and a plain error on malformed input. Under controls
// installed by SetControl it can also return ErrStepBudget or the
// context's error; both mean "stopped early", not "undefined". Dependencies
// whose relation has no rows are ignored. Multi-RHS CFDs are applied
// directly (no prior normalization needed).
//
// Run is the resumable worklist (see Resumable) seeded with every
// dependency: dependencies are indexed by the columns their LHS mentions,
// the term state journals which classes change (see sym.Event), and only
// the dependencies whose LHS touches a changed class are re-examined —
// instead of rescanning all of Σ against all row pairs per round. Any
// premise that holds initially is found by the seed's examination; later
// ones only start to hold after a journal event on a mentioned class.
func (ci *Inst) Run(sigma []*cfd.CFD) error {
	cs, err := ci.compile(sigma)
	if err != nil {
		return err
	}
	rs := Resumable{
		ci:      ci,
		cs:      cs,
		overlay: ci.buildOcc(cs),
		queue:   make([]int, len(cs), 2*len(cs)),
		inQ:     make([]bool, len(cs)),
	}
	for i := range cs {
		rs.queue[i] = i
		rs.inQ[i] = true
	}
	ci.St.TrackEvents(true)
	defer ci.St.TrackEvents(false)
	return rs.drain()
}

// compiled is one dependency with attribute positions pre-resolved against
// its relation's declared column order.
type compiled struct {
	c        *cfd.CFD
	lhs, rhs []int
	rows     []*Row
}

// compile pre-resolves attribute positions per CFD; dependencies whose
// relation has no rows are dropped.
func (ci *Inst) compile(sigma []*cfd.CFD) ([]compiled, error) {
	var cs []compiled
	for _, c := range sigma {
		rows := ci.rows[c.Relation]
		if len(rows) == 0 {
			continue
		}
		idx := ci.attrIdx[c.Relation]
		cc := compiled{c: c, rows: rows}
		ok := true
		for _, it := range c.LHS {
			i, found := idx[it.Attr]
			if !found {
				ok = false
				break
			}
			cc.lhs = append(cc.lhs, i)
		}
		for _, it := range c.RHS {
			i, found := idx[it.Attr]
			if !found {
				ok = false
				break
			}
			cc.rhs = append(cc.rhs, i)
		}
		if !ok {
			return nil, fmt.Errorf("chase: %s mentions attributes missing from declared relation %q", c, c.Relation)
		}
		cs = append(cs, cc)
	}
	return cs, nil
}

// buildOcc maps each unbound class root to the dependencies whose premise
// mentions a column holding a member of the class. Equality CFDs need no
// entries: equating t[A] with t[B] is idempotent, so applying them once
// (from the seed) suffices.
func (ci *Inst) buildOcc(cs []compiled) map[int][]int {
	occ := make(map[int][]int)
	for i, cc := range cs {
		if cc.c.Equality {
			continue
		}
		for _, p := range cc.lhs {
			for _, r := range cc.rows {
				if rt := ci.St.Resolve(r.Cols[p]); rt.IsVar {
					occ[rt.Var] = append(occ[rt.Var], i)
				}
			}
		}
	}
	return occ
}

// apply performs one pass of a single dependency over its rows.
func (ci *Inst) apply(c *cfd.CFD, lhs, rhs []int, rows []*Row) error {
	if c.Equality {
		for _, r := range rows {
			if err := ci.St.Equate(r.Cols[lhs[0]], r.Cols[rhs[0]]); err != nil {
				return ErrUndefined{Cause: err}
			}
		}
		return nil
	}
	for i, t1 := range rows {
		for j := i; j < len(rows); j++ {
			t2 := rows[j]
			if !ci.premiseHolds(c, lhs, t1, t2) {
				continue
			}
			for k, it := range c.RHS {
				a1, a2 := t1.Cols[rhs[k]], t2.Cols[rhs[k]]
				if err := ci.St.Equate(a1, a2); err != nil {
					return ErrUndefined{Cause: err}
				}
				if !it.Pat.Wildcard {
					if err := ci.St.Bind(a1, it.Pat.Const); err != nil {
						return ErrUndefined{Cause: err}
					}
				}
			}
		}
	}
	return nil
}

// premiseHolds reports whether the pair (t1, t2) definitely satisfies
// t1[X] = t2[X] ≍ tp[X] in the current state: per LHS entry, both terms
// resolve to the same term, and constant patterns additionally require
// that term to be the pattern's constant.
func (ci *Inst) premiseHolds(c *cfd.CFD, lhs []int, t1, t2 *Row) bool {
	for k, it := range c.LHS {
		a := ci.St.Resolve(t1.Cols[lhs[k]])
		b := ci.St.Resolve(t2.Cols[lhs[k]])
		if a.IsVar != b.IsVar {
			return false
		}
		if a.IsVar {
			if a.Var != b.Var {
				return false
			}
			if !it.Pat.Wildcard {
				return false // unknown value cannot definitely match a constant
			}
		} else {
			if a.Const != b.Const {
				return false
			}
			if !it.Pat.Matches(a.Const) {
				return false
			}
		}
	}
	return true
}

// Concrete instantiates the terminal chase instance into a concrete
// database over the given schema: bound classes take their constants,
// unbound infinite-domain classes take pairwise-distinct fresh constants.
// It fails if any unbound finite-domain class remains (the general-setting
// callers must enumerate those first) unless allowFinitePick is set, in
// which case an arbitrary domain member is chosen.
func (ci *Inst) Concrete(db *rel.DBSchema, allowFinitePick bool) (*rel.Database, error) {
	if !allowFinitePick {
		if roots := ci.St.UnboundFiniteRoots(); len(roots) > 0 {
			return nil, fmt.Errorf("chase: %d unbound finite-domain classes remain; enumerate before instantiating", len(roots))
		}
	}
	resolve := ci.St.InstantiateDistinct()
	out := rel.NewDatabase(db)
	// Visit relations in sorted order: InstantiateDistinct assigns fresh
	// constants in resolution order, so the iteration order must be fixed
	// for counterexamples to be byte-identical across runs (and across
	// propagation worker counts).
	names := make([]string, 0, len(ci.rows))
	for name := range ci.rows {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rows := ci.rows[name]
		if db.Relation(name) == nil {
			return nil, fmt.Errorf("chase: schema has no relation %q", name)
		}
		for _, r := range rows {
			t := make(rel.Tuple, len(r.Cols))
			for i, term := range r.Cols {
				t[i] = resolve(term)
			}
			if err := out.Insert(name, t); err != nil {
				return nil, err
			}
		}
	}
	for name := range out.Instances {
		out.Instances[name].Dedup()
	}
	return out, nil
}
