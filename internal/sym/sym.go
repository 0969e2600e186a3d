// Package sym implements symbolic values for the chase: terms that are
// either constants or variables, and a union-find structure that merges
// variables, binds variables to constants, tracks each variable's admissible
// domain, and detects conflicts (two distinct constants equated, or a
// variable bound outside its finite domain).
//
// The chase procedures in the appendix of Fan et al. (VLDB 2008) repeatedly
// equate terms ("let t[A] = t'[A]") and declare the chase undefined when two
// distinct constants would be identified; State is exactly that machinery.
package sym

import (
	"fmt"

	"cfdprop/internal/rel"
)

// Term is a symbolic value: a constant or a variable identifier. Variables
// are identified by small non-negative integers allocated by a State.
type Term struct {
	IsVar bool
	Var   int    // valid when IsVar
	Const string // valid when !IsVar
}

// Constant builds a constant term.
func Constant(v string) Term { return Term{Const: v} }

// Variable builds a variable term (normally via State.NewVar).
func Variable(id int) Term { return Term{IsVar: true, Var: id} }

func (t Term) String() string {
	if t.IsVar {
		return fmt.Sprintf("v%d", t.Var)
	}
	return fmt.Sprintf("%q", t.Const)
}

// State is a union-find over variables with per-class constant bindings and
// domain constraints. The zero value is not usable; call NewState.
type State struct {
	parent []int
	rank   []int
	// class info, valid at root indexes only:
	bound  []bool
	value  []string
	domain []rel.Domain

	conflict error // non-nil after the first failed Equate/Bind
	version  int   // incremented on every state-changing Bind/Equate

	trackEvents bool
	events      []Event

	// Incremental rollback (BeginUndo/Mark/Rewind): while trackUndo is on,
	// every state-changing Bind/Equate appends an inverse operation, and
	// find() stops path-compressing — a compressed parent pointer is a
	// mutation the undo log does not record, so rewinding would leave
	// variables pointing across a dissolved union.
	trackUndo bool
	undo      []undoOp
}

// undoOp is the inverse of one Bind or Equate. For a bind, merged is -1 and
// root identifies the class to unbind. For a union, merged is the absorbed
// class root: rewinding restores parent[merged] = merged and root's
// pre-union rank and domain.
type undoOp struct {
	root, merged int
	rank         int
	domain       rel.Domain
}

// Event records one state change for incremental (worklist) chase
// consumers: a Bind collapsed class Root to a constant (Merged == -1), or
// an Equate absorbed class Merged into class Root. After a union, variables
// of both classes find() to Root.
type Event struct{ Root, Merged int }

// NewState returns an empty state.
func NewState() *State { return &State{} }

// NewVar allocates a fresh variable constrained to the given domain and
// returns its term.
func (s *State) NewVar(d rel.Domain) Term {
	id := len(s.parent)
	s.parent = append(s.parent, id)
	s.rank = append(s.rank, 0)
	s.bound = append(s.bound, false)
	s.value = append(s.value, "")
	s.domain = append(s.domain, d)
	return Variable(id)
}

// NumVars returns the number of variables ever allocated.
func (s *State) NumVars() int { return len(s.parent) }

// Conflict returns the first conflict encountered, or nil.
func (s *State) Conflict() error { return s.conflict }

// Version returns a counter that increases whenever a Bind or Equate call
// changes the state; chase loops use it to detect fixpoints.
func (s *State) Version() int { return s.version }

// TrackEvents turns the change journal on or off and clears it. While on,
// every state-changing Bind/Equate appends an Event; worklist chase loops
// drain the journal to find the classes whose resolution changed instead of
// rescanning every dependency. Snapshots do not capture the journal:
// Restore clears it.
func (s *State) TrackEvents(on bool) {
	s.trackEvents = on
	s.events = s.events[:0]
}

// Events returns the journal accumulated since the last TrackEvents or
// ClearEvents call. The slice is reused; callers must not retain it.
func (s *State) Events() []Event { return s.events }

// ClearEvents empties the journal, keeping its capacity.
func (s *State) ClearEvents() { s.events = s.events[:0] }

// Reset empties the state for reuse, keeping allocated capacity (and the
// event-tracking flag) so pooled chase sessions avoid reallocating per
// query. The conflict flag, the journal and any undo tracking are cleared.
func (s *State) Reset() {
	s.parent = s.parent[:0]
	s.rank = s.rank[:0]
	s.bound = s.bound[:0]
	s.value = s.value[:0]
	s.domain = s.domain[:0]
	s.conflict = nil
	s.version = 0
	s.events = s.events[:0]
	s.trackUndo = false
	s.undo = s.undo[:0]
}

// find returns the root of the variable's class with path compression.
// Compression is suspended while undo tracking is on: parent rewrites are
// not journaled, so they must not happen between a Mark and its Rewind.
func (s *State) find(v int) int {
	if s.trackUndo {
		for s.parent[v] != v {
			v = s.parent[v]
		}
		return v
	}
	for s.parent[v] != v {
		s.parent[v] = s.parent[s.parent[v]]
		v = s.parent[v]
	}
	return v
}

// Resolve normalizes a term: a variable bound to a constant resolves to
// that constant; an unbound variable resolves to its class root.
func (s *State) Resolve(t Term) Term {
	if !t.IsVar {
		return t
	}
	r := s.find(t.Var)
	if s.bound[r] {
		return Constant(s.value[r])
	}
	return Variable(r)
}

// SameTerm reports whether two terms resolve to the same constant or the
// same variable class.
func (s *State) SameTerm(a, b Term) bool {
	ra, rb := s.Resolve(a), s.Resolve(b)
	if ra.IsVar != rb.IsVar {
		return false
	}
	if ra.IsVar {
		return ra.Var == rb.Var
	}
	return ra.Const == rb.Const
}

// fail records and returns a conflict.
func (s *State) fail(format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	if s.conflict == nil {
		s.conflict = err
	}
	return err
}

// Bind forces a term to equal the given constant. It fails when the term is
// already a different constant or the constant lies outside the term's
// domain.
func (s *State) Bind(t Term, c string) error {
	rt := s.Resolve(t)
	if !rt.IsVar {
		if rt.Const != c {
			return s.fail("sym: constants %q and %q equated", rt.Const, c)
		}
		return nil
	}
	r := rt.Var
	if !s.domain[r].Contains(c) {
		return s.fail("sym: constant %q outside domain %s", c, s.domain[r])
	}
	s.bound[r] = true
	s.value[r] = c
	s.version++
	if s.trackUndo {
		s.undo = append(s.undo, undoOp{root: r, merged: -1})
	}
	if s.trackEvents {
		s.events = append(s.events, Event{Root: r, Merged: -1})
	}
	return nil
}

// Equate merges two terms, failing on a constant clash or an empty domain
// intersection.
func (s *State) Equate(a, b Term) error {
	ra, rb := s.Resolve(a), s.Resolve(b)
	switch {
	case !ra.IsVar && !rb.IsVar:
		if ra.Const != rb.Const {
			return s.fail("sym: constants %q and %q equated", ra.Const, rb.Const)
		}
		return nil
	case !ra.IsVar:
		return s.Bind(rb, ra.Const)
	case !rb.IsVar:
		return s.Bind(ra, rb.Const)
	}
	x, y := ra.Var, rb.Var
	if x == y {
		return nil
	}
	d := s.domain[x].Intersect(s.domain[y])
	if d.Finite && d.Size() == 0 {
		return s.fail("sym: empty domain intersection of %s and %s", s.domain[x], s.domain[y])
	}
	// union by rank
	if s.rank[x] < s.rank[y] {
		x, y = y, x
	}
	if s.trackUndo {
		s.undo = append(s.undo, undoOp{root: x, merged: y, rank: s.rank[x], domain: s.domain[x]})
	}
	s.parent[y] = x
	if s.rank[x] == s.rank[y] {
		s.rank[x]++
	}
	s.domain[x] = d
	s.version++
	if s.trackEvents {
		s.events = append(s.events, Event{Root: x, Merged: y})
	}
	return nil
}

// Domain returns the current domain constraint of a term: a singleton
// domain for constants, the class domain for variables.
func (s *State) Domain(t Term) rel.Domain {
	rt := s.Resolve(t)
	if !rt.IsVar {
		return rel.FiniteDomain("const", rt.Const)
	}
	return s.domain[rt.Var]
}

// UnboundFiniteRoots returns the class roots that are unbound and whose
// domain is finite, in increasing id order. These are the variables the
// general-setting decision procedures must instantiate.
func (s *State) UnboundFiniteRoots() []int {
	var out []int
	for v := range s.parent {
		if s.find(v) == v && !s.bound[v] && s.domain[v].Finite {
			out = append(out, v)
		}
	}
	return out
}

// Snapshot captures the state so it can be restored after speculative
// chasing. Restoring is O(n) in the number of variables.
type Snapshot struct {
	parent  []int
	rank    []int
	bound   []bool
	value   []string
	domain  []rel.Domain
	version int
}

// Save captures the current state.
func (s *State) Save() *Snapshot {
	sn := &Snapshot{
		parent:  append([]int(nil), s.parent...),
		rank:    append([]int(nil), s.rank...),
		bound:   append([]bool(nil), s.bound...),
		value:   append([]string(nil), s.value...),
		domain:  append([]rel.Domain(nil), s.domain...),
		version: s.version,
	}
	return sn
}

// Restore rewinds the state to a snapshot taken from the same State. The
// conflict flag is cleared, and any undo log is dropped (Marks taken
// before a Restore are invalid).
func (s *State) Restore(sn *Snapshot) {
	s.parent = append(s.parent[:0], sn.parent...)
	s.rank = append(s.rank[:0], sn.rank...)
	s.bound = append(s.bound[:0], sn.bound...)
	s.value = append(s.value[:0], sn.value...)
	s.domain = append(s.domain[:0], sn.domain...)
	s.version = sn.version
	s.conflict = nil
	s.events = s.events[:0]
	s.undo = s.undo[:0]
}

// Mark is a cheap rewind point taken while undo tracking is on (see
// BeginUndo). Unlike Snapshot it captures nothing: Rewind replays the undo
// log recorded since the mark, so taking one is O(1) and rewinding is
// proportional to the changes made, not to the number of variables.
type Mark struct {
	undo, events, vars, version int
}

// BeginUndo turns on incremental undo journaling: subsequent Binds and
// Equates record inverse operations so the state can be rewound to any
// Mark taken after this call. While tracking is on, find() suspends path
// compression (uncompressed lookups stay O(log n) under union by rank; the
// speculative chases this serves are short). Call EndUndo when the state's
// current content is final.
func (s *State) BeginUndo() {
	s.trackUndo = true
	s.undo = s.undo[:0]
}

// EndUndo turns off undo journaling and drops the log. Marks taken before
// this call must not be rewound afterwards.
func (s *State) EndUndo() {
	s.trackUndo = false
	s.undo = s.undo[:0]
}

// MarkNow records the current state as a rewind point. Only valid while
// undo tracking is on.
func (s *State) MarkNow() Mark {
	return Mark{undo: len(s.undo), events: len(s.events), vars: len(s.parent), version: s.version}
}

// Rewind rolls the state back to a mark taken (after BeginUndo) on this
// State: binds and unions recorded since are inverted in reverse order,
// variables allocated since are dropped, the event journal is truncated to
// its length at the mark, and the conflict flag is cleared — rewinding past
// a failed Bind/Equate restores a usable state.
func (s *State) Rewind(m Mark) {
	for i := len(s.undo) - 1; i >= m.undo; i-- {
		op := s.undo[i]
		if op.merged < 0 {
			s.bound[op.root] = false
			s.value[op.root] = ""
			continue
		}
		s.parent[op.merged] = op.merged
		s.rank[op.root] = op.rank
		s.domain[op.root] = op.domain
	}
	s.undo = s.undo[:m.undo]
	if m.events <= len(s.events) {
		s.events = s.events[:m.events]
	}
	s.parent = s.parent[:m.vars]
	s.rank = s.rank[:m.vars]
	s.bound = s.bound[:m.vars]
	s.value = s.value[:m.vars]
	s.domain = s.domain[:m.vars]
	s.version = m.version
	s.conflict = nil
}

// FreshConstant returns a constant string guaranteed (by construction of
// the "\x00fresh" prefix, which no parser in this module produces) not to
// collide with any user constant. Used to instantiate terminal chase
// instances into concrete counterexamples.
func FreshConstant(i int) string { return fmt.Sprintf("\x00fresh%d", i) }

// InstantiateDistinct maps every unbound variable class to a distinct fresh
// constant and returns a function resolving terms to concrete strings.
// Unbound finite-domain classes pick the first domain value not excluded;
// callers that need exhaustive finite-domain treatment must enumerate
// beforehand (see internal/propagation).
func (s *State) InstantiateDistinct() func(Term) string {
	assign := make(map[int]string)
	next := 0
	return func(t Term) string {
		rt := s.Resolve(t)
		if !rt.IsVar {
			return rt.Const
		}
		if v, ok := assign[rt.Var]; ok {
			return v
		}
		var v string
		if d := s.domain[rt.Var]; d.Finite {
			// Pick an arbitrary member; exhaustive choice is the caller's
			// responsibility in the general setting.
			v = d.Values[0]
		} else {
			v = FreshConstant(next)
			next++
		}
		assign[rt.Var] = v
		return v
	}
}
