// Package cfd implements conditional functional dependencies (CFDs) as
// defined in Fan et al., "Conditional Functional Dependencies for Capturing
// Data Inconsistencies" and used throughout "Propagating Functional
// Dependencies with Conditions" (VLDB 2008).
//
// A CFD φ = R(X → Y, tp) pairs an embedded FD X → Y with a pattern tuple tp
// over X ∪ Y whose entries are constants or the unnamed wildcard '_'. An
// instance D satisfies φ iff for every pair of tuples t1, t2 (including
// t1 = t2): t1[X] = t2[X] ≍ tp[X] implies t1[Y] = t2[Y] ≍ tp[Y].
//
// The package also implements the special view CFDs R(A → B, (x ‖ x)),
// written here as equality CFDs, which assert t[A] = t[B] for every tuple;
// the paper uses them to fold selection conditions A = B into the uniform
// CFD framework (§2.1, Lemma 4.2).
package cfd

import (
	"fmt"
	"strconv"
	"strings"

	"cfdprop/internal/rel"
)

// Pattern is one entry of a pattern tuple: the wildcard '_' or a constant.
type Pattern struct {
	Wildcard bool
	Const    string // valid when !Wildcard
}

// Any is the wildcard pattern '_'.
func Any() Pattern { return Pattern{Wildcard: true} }

// Eq returns the constant pattern 'c'.
func Eq(c string) Pattern { return Pattern{Const: c} }

func (p Pattern) String() string {
	if p.Wildcard {
		return "_"
	}
	return p.Const
}

// Matches implements v ≍ p for a concrete value v: true iff p is '_' or
// p's constant equals v.
func (p Pattern) Matches(v string) bool {
	return p.Wildcard || p.Const == v
}

// LE implements the partial order ≤ of §4.2: η1 ≤ η2 iff η1 and η2 are the
// same constant, or η2 = '_'.
func (p Pattern) LE(q Pattern) bool {
	if q.Wildcard {
		return true
	}
	return !p.Wildcard && p.Const == q.Const
}

// Min returns the smaller of two comparable patterns under ≤ and reports
// whether the pair was comparable. This is the per-attribute step of the
// ⊕ operator used to build A-resolvents.
func Min(p, q Pattern) (Pattern, bool) {
	switch {
	case p.LE(q):
		return p, true
	case q.LE(p):
		return q, true
	}
	return Pattern{}, false
}

// Item pairs an attribute with its pattern entry.
type Item struct {
	Attr string
	Pat  Pattern
}

// CFD is a conditional functional dependency over a named relation.
//
// Two shapes exist:
//   - standard: R(X → Y, tp) with X = LHS, Y = RHS (patterns attached);
//   - equality (Equality == true): R(A → B, (x ‖ x)) with LHS = [A],
//     RHS = [B]; patterns are ignored.
//
// The general form allows |RHS| > 1; Normalize converts to the single-RHS
// normal form assumed by the cover algorithms (§4).
type CFD struct {
	Relation string
	Equality bool
	LHS      []Item
	RHS      []Item
}

// New builds a standard CFD after validating attribute-name uniqueness per
// side and non-empty RHS.
func New(relation string, lhs, rhs []Item) (*CFD, error) {
	if relation == "" {
		return nil, fmt.Errorf("cfd: empty relation name")
	}
	if len(rhs) == 0 {
		return nil, fmt.Errorf("cfd: empty RHS")
	}
	seen := map[string]bool{}
	for _, it := range lhs {
		if it.Attr == "" {
			return nil, fmt.Errorf("cfd: empty LHS attribute")
		}
		if seen[it.Attr] {
			return nil, fmt.Errorf("cfd: duplicate LHS attribute %q", it.Attr)
		}
		seen[it.Attr] = true
	}
	seen = map[string]bool{}
	for _, it := range rhs {
		if it.Attr == "" {
			return nil, fmt.Errorf("cfd: empty RHS attribute")
		}
		if seen[it.Attr] {
			return nil, fmt.Errorf("cfd: duplicate RHS attribute %q", it.Attr)
		}
		seen[it.Attr] = true
	}
	return &CFD{Relation: relation, LHS: lhs, RHS: rhs}, nil
}

// Must is New that panics on error; for tests and static declarations.
func Must(relation string, lhs, rhs []Item) *CFD {
	c, err := New(relation, lhs, rhs)
	if err != nil {
		panic(err)
	}
	return c
}

// NewFD builds a traditional FD X → A as a CFD with all-wildcard patterns.
func NewFD(relation string, lhs []string, rhs ...string) *CFD {
	l := make([]Item, len(lhs))
	for i, a := range lhs {
		l[i] = Item{Attr: a, Pat: Any()}
	}
	r := make([]Item, len(rhs))
	for i, a := range rhs {
		r[i] = Item{Attr: a, Pat: Any()}
	}
	return Must(relation, l, r)
}

// NewEquality builds the special view CFD R(A → B, (x ‖ x)) asserting
// t[A] = t[B] for every tuple t.
func NewEquality(relation, a, b string) *CFD {
	return &CFD{
		Relation: relation,
		Equality: true,
		LHS:      []Item{{Attr: a, Pat: Any()}},
		RHS:      []Item{{Attr: b, Pat: Any()}},
	}
}

// NewConstant builds R(A → A, (_ ‖ c)): the column A holds the constant c
// in every tuple (Lemma 4.2(a); also used for the constant relation Rc).
func NewConstant(relation, attr, c string) *CFD {
	return &CFD{
		Relation: relation,
		LHS:      []Item{{Attr: attr, Pat: Any()}},
		RHS:      []Item{{Attr: attr, Pat: Eq(c)}},
	}
}

// IsConstant reports whether the CFD asserts that a column holds a fixed
// constant — either the paper's R(A → A, (_ ‖ c)) shape or its left-reduced
// empty-LHS equivalent R([] → [A=c]) — and, if so, returns the attribute
// and constant.
func (c *CFD) IsConstant() (attr, val string, ok bool) {
	if c.Equality || len(c.RHS) != 1 {
		return "", "", false
	}
	r := c.RHS[0]
	if r.Pat.Wildcard {
		return "", "", false
	}
	switch len(c.LHS) {
	case 0:
		return r.Attr, r.Pat.Const, true
	case 1:
		l := c.LHS[0]
		if l.Attr == r.Attr && l.Pat.Wildcard {
			return r.Attr, r.Pat.Const, true
		}
	}
	return "", "", false
}

// IsFD reports whether every pattern entry is the wildcard, i.e. the CFD is
// a traditional FD.
func (c *CFD) IsFD() bool {
	if c.Equality {
		return false
	}
	for _, it := range c.LHS {
		if !it.Pat.Wildcard {
			return false
		}
	}
	for _, it := range c.RHS {
		if !it.Pat.Wildcard {
			return false
		}
	}
	return true
}

// LHSItem returns the LHS item for attr, if present.
func (c *CFD) LHSItem(attr string) (Item, bool) {
	for _, it := range c.LHS {
		if it.Attr == attr {
			return it, true
		}
	}
	return Item{}, false
}

// Mentions reports whether the CFD mentions the attribute on either side.
func (c *CFD) Mentions(attr string) bool {
	for _, it := range c.LHS {
		if it.Attr == attr {
			return true
		}
	}
	for _, it := range c.RHS {
		if it.Attr == attr {
			return true
		}
	}
	return false
}

// Clone returns a deep copy.
func (c *CFD) Clone() *CFD {
	d := &CFD{Relation: c.Relation, Equality: c.Equality}
	d.LHS = append([]Item(nil), c.LHS...)
	d.RHS = append([]Item(nil), c.RHS...)
	return d
}

// Rename returns a copy with relation renamed to newRel and every attribute
// mapped through fn.
func (c *CFD) Rename(newRel string, fn func(string) string) *CFD {
	d := c.Clone()
	d.Relation = newRel
	for i := range d.LHS {
		d.LHS[i].Attr = fn(d.LHS[i].Attr)
	}
	for i := range d.RHS {
		d.RHS[i].Attr = fn(d.RHS[i].Attr)
	}
	return d
}

// Normalize converts the CFD to an equivalent set of CFDs in the normal
// form (single RHS attribute). Equality CFDs are already normal. CFDs are
// immutable by convention, so already-normal CFDs are returned as-is.
func (c *CFD) Normalize() []*CFD {
	if c.Equality || len(c.RHS) == 1 {
		return []*CFD{c}
	}
	out := make([]*CFD, 0, len(c.RHS))
	for _, r := range c.RHS {
		d := &CFD{Relation: c.Relation}
		d.LHS = append([]Item(nil), c.LHS...)
		d.RHS = []Item{r}
		out = append(out, d)
	}
	return out
}

// NormalizeAll normalizes a set of CFDs. When every CFD is already in
// normal form the input slice is returned unchanged (no allocation).
func NormalizeAll(cs []*CFD) []*CFD {
	normal := true
	for _, c := range cs {
		if !c.Equality && len(c.RHS) != 1 {
			normal = false
			break
		}
	}
	if normal {
		return cs
	}
	var out []*CFD
	for _, c := range cs {
		out = append(out, c.Normalize()...)
	}
	return out
}

// IsTrivial reports whether a normal-form CFD is trivial per §4.1: a
// standard CFD R(X → A, tp) is trivial iff A ∈ X and, writing the LHS
// pattern of A as η1 and the RHS pattern as η2, either η1 = η2 or η1 is a
// constant while η2 = '_'. (Equivalently: η2's constraint is subsumed.)
// Equality CFDs A = A are trivial.
func (c *CFD) IsTrivial() bool {
	if c.Equality {
		return c.LHS[0].Attr == c.RHS[0].Attr
	}
	if len(c.RHS) != 1 {
		for _, n := range c.Normalize() {
			if !n.IsTrivial() {
				return false
			}
		}
		return true
	}
	r := c.RHS[0]
	l, onLHS := c.LHSItem(r.Attr)
	if !onLHS {
		return false
	}
	η1, η2 := l.Pat, r.Pat
	if η1.Wildcard == η2.Wildcard && (η1.Wildcard || η1.Const == η2.Const) {
		return true // η1 = η2
	}
	if !η1.Wildcard && η2.Wildcard {
		return true // constant LHS, wildcard RHS
	}
	return false
}

// Key returns a canonical string identifying the CFD up to reordering of
// either side's items: two CFDs share a key exactly when they have the
// same relation, the same shape and the same multisets of LHS and RHS
// items. Every name and constant is length-prefixed, so separators inside
// them cannot make two CFDs collide. Useful for set semantics over CFDs;
// items are formatted into one buffer and sorted by segment instead of
// materializing per-item strings.
func (c *CFD) Key() string {
	buf := make([]byte, 0, 64)
	if c.Equality {
		buf = append(buf, "eq|"...)
	} else {
		buf = append(buf, "std|"...)
	}
	buf = appendSized(buf, c.Relation)
	buf = append(buf, '|')
	buf = appendItemsKey(buf, c.LHS)
	buf = append(buf, '|')
	buf = appendItemsKey(buf, c.RHS)
	return string(buf)
}

// appendItemsKey appends the encoding of each item, comma-separated in
// (attr, pattern) order: the sized attr, then '_' for a wildcard or '='
// and the sized constant.
func appendItemsKey(buf []byte, items []Item) []byte {
	var scratch [16]int
	order := scratch[:0]
	if len(items) > len(scratch) {
		order = make([]int, 0, len(items))
	}
	for i := range items {
		order = append(order, i)
	}
	// Insertion sort: item lists are tiny and sort.Slice's closure would
	// allocate. Attributes are unique per side, so the pattern tiebreak is
	// defensive only.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && itemLess(items[order[j]], items[order[j-1]]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for k, o := range order {
		if k > 0 {
			buf = append(buf, ',')
		}
		it := items[o]
		buf = appendSized(buf, it.Attr)
		if it.Pat.Wildcard {
			buf = append(buf, '_')
		} else {
			buf = appendSized(append(buf, '='), it.Pat.Const)
		}
	}
	return buf
}

// appendSized appends "<len>:<s>".
func appendSized(buf []byte, s string) []byte {
	buf = strconv.AppendInt(buf, int64(len(s)), 10)
	return append(append(buf, ':'), s...)
}

func itemLess(a, b Item) bool {
	if a.Attr != b.Attr {
		return a.Attr < b.Attr
	}
	if a.Pat.Wildcard != b.Pat.Wildcard {
		return a.Pat.Wildcard
	}
	return a.Pat.Const < b.Pat.Const
}

// Dedup removes duplicate CFDs (by Key) preserving order.
func Dedup(cs []*CFD) []*CFD {
	seen := make(map[string]bool, len(cs))
	out := make([]*CFD, 0, len(cs))
	for _, c := range cs {
		k := c.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}

func itemsString(items []Item, withPat bool) string {
	parts := make([]string, len(items))
	for i, it := range items {
		if withPat && !it.Pat.Wildcard {
			parts[i] = fmt.Sprintf("%s=%s", it.Attr, quoteConst(it.Pat.Const))
		} else {
			parts[i] = it.Attr
		}
	}
	return strings.Join(parts, ", ")
}

// quoteConst quotes constants that would confuse the Parse grammar.
func quoteConst(c string) string {
	if c == "_" || c == "" || strings.ContainsAny(c, `,[]"=() `) {
		return `"` + c + `"`
	}
	return c
}

// String renders the CFD in the paper's bracket notation, e.g.
// R([CC=44, AC] -> [city]) or R(A == B) for equality CFDs.
func (c *CFD) String() string {
	if c.Equality {
		return fmt.Sprintf("%s(%s == %s)", c.Relation, c.LHS[0].Attr, c.RHS[0].Attr)
	}
	return fmt.Sprintf("%s([%s] -> [%s])", c.Relation, itemsString(c.LHS, true), itemsString(c.RHS, true))
}

// Validate checks the CFD against a relation schema: every attribute must
// exist and every constant must belong to its attribute's domain.
func (c *CFD) Validate(s *rel.Schema) error {
	if c.Relation != s.Name {
		return fmt.Errorf("cfd: %s is defined on %q, not %q", c, c.Relation, s.Name)
	}
	check := func(items []Item) error {
		for _, it := range items {
			d, ok := s.Domain(it.Attr)
			if !ok {
				return fmt.Errorf("cfd: %s: unknown attribute %q", c, it.Attr)
			}
			if !it.Pat.Wildcard && !d.Contains(it.Pat.Const) {
				return fmt.Errorf("cfd: %s: constant %q outside domain of %s", c, it.Pat.Const, it.Attr)
			}
		}
		return nil
	}
	if err := check(c.LHS); err != nil {
		return err
	}
	return check(c.RHS)
}

// ValidateAll validates a set of CFDs against a database schema.
func ValidateAll(cs []*CFD, db *rel.DBSchema) error {
	for _, c := range cs {
		s := db.Relation(c.Relation)
		if s == nil {
			return fmt.Errorf("cfd: %s: unknown relation %q", c, c.Relation)
		}
		if err := c.Validate(s); err != nil {
			return err
		}
	}
	return nil
}
