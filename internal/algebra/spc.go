// Package algebra implements the positive relational-algebra view languages
// of Fan et al. (VLDB 2008) §2.2: SPC queries in the normal form
//
//	πY(Rc × Es),  Es = σF(Ec),  Ec = R1 × … × Rn
//
// where Rc is a single-tuple constant relation, each Rj is a renamed copy
// ρj(S) of a source relation with attribute names disjoint across atoms,
// and F is a conjunction of equality atoms A = B and A = 'a'. SPCU queries
// are unions of union-compatible SPC queries. The package also classifies
// queries into the fragments S, P, C, SP, SC, PC, SPC, SPCU and evaluates
// them over concrete databases (needed to validate propagation results
// end-to-end).
package algebra

import (
	"fmt"
	"strings"

	"cfdprop/internal/rel"
)

// ConstAtom is one column (Ai : ai) of the constant relation Rc.
type ConstAtom struct {
	Attr  string
	Value string
}

// RelAtom is a renamed relation atom ρj(S): Source names the source
// relation and Attrs gives the view-side names of its columns in source
// order. Attribute names must be disjoint across all atoms of a query.
type RelAtom struct {
	Source string
	Attrs  []string
}

// EqAtom is one conjunct of the selection condition F: either A = B
// (IsConst false, Right an attribute) or A = 'a' (IsConst true, Right a
// constant).
type EqAtom struct {
	Left    string
	IsConst bool
	Right   string
}

func (e EqAtom) String() string {
	if e.IsConst {
		return fmt.Sprintf("%s='%s'", e.Left, e.Right)
	}
	return fmt.Sprintf("%s=%s", e.Left, e.Right)
}

// SPC is an SPC query in normal form.
type SPC struct {
	Name       string      // view (output relation) name
	Consts     []ConstAtom // Rc; every Attr must appear in Projection
	Atoms      []RelAtom   // Ec
	Selection  []EqAtom    // F, over atom attributes
	Projection []string    // Y; must cover Consts' attributes
}

// AttrPos locates an atom attribute: atom index and column position.
type AttrPos struct {
	Atom, Col int
}

// attrIndex returns the position of every atom attribute.
func (q *SPC) attrIndex() map[string]AttrPos {
	m := make(map[string]AttrPos)
	for ai, atom := range q.Atoms {
		for ci, a := range atom.Attrs {
			m[a] = AttrPos{Atom: ai, Col: ci}
		}
	}
	return m
}

// constAttrs returns the set of Rc attribute names.
func (q *SPC) constAttrs() map[string]string {
	m := make(map[string]string, len(q.Consts))
	for _, c := range q.Consts {
		m[c.Attr] = c.Value
	}
	return m
}

// Validate checks the query against the source database schema: sources
// exist with matching arity, attribute names are globally disjoint,
// selection atoms reference atom attributes with domain-compatible
// constants, and the projection covers Rc and references known attributes.
func (q *SPC) Validate(db *rel.DBSchema) error {
	if q.Name == "" {
		return fmt.Errorf("algebra: view has empty name")
	}
	seen := map[string]bool{}
	for _, c := range q.Consts {
		if c.Attr == "" {
			return fmt.Errorf("algebra: %s: constant atom with empty attribute", q.Name)
		}
		if seen[c.Attr] {
			return fmt.Errorf("algebra: %s: duplicate attribute %q", q.Name, c.Attr)
		}
		seen[c.Attr] = true
	}
	for _, atom := range q.Atoms {
		s := db.Relation(atom.Source)
		if s == nil {
			return fmt.Errorf("algebra: %s: unknown source relation %q", q.Name, atom.Source)
		}
		if len(atom.Attrs) != s.Arity() {
			return fmt.Errorf("algebra: %s: atom over %s has %d attributes, want %d",
				q.Name, atom.Source, len(atom.Attrs), s.Arity())
		}
		for _, a := range atom.Attrs {
			if a == "" {
				return fmt.Errorf("algebra: %s: empty attribute name in atom over %s", q.Name, atom.Source)
			}
			if seen[a] {
				return fmt.Errorf("algebra: %s: duplicate attribute %q", q.Name, a)
			}
			seen[a] = true
		}
	}
	idx := q.attrIndex()
	domOf := func(a string) (rel.Domain, bool) {
		p, ok := idx[a]
		if !ok {
			return rel.Domain{}, false
		}
		src := db.Relation(q.Atoms[p.Atom].Source)
		return src.Attrs[p.Col].Domain, true
	}
	for _, e := range q.Selection {
		dl, ok := domOf(e.Left)
		if !ok {
			return fmt.Errorf("algebra: %s: selection %s references unknown attribute %q", q.Name, e, e.Left)
		}
		if e.IsConst {
			if !dl.Contains(e.Right) {
				return fmt.Errorf("algebra: %s: selection %s: constant outside domain %s", q.Name, e, dl)
			}
		} else if _, ok := domOf(e.Right); !ok {
			return fmt.Errorf("algebra: %s: selection %s references unknown attribute %q", q.Name, e, e.Right)
		}
	}
	proj := map[string]bool{}
	for _, y := range q.Projection {
		if proj[y] {
			return fmt.Errorf("algebra: %s: duplicate projection attribute %q", q.Name, y)
		}
		proj[y] = true
		if !seen[y] {
			return fmt.Errorf("algebra: %s: projection references unknown attribute %q", q.Name, y)
		}
	}
	for _, c := range q.Consts {
		if !proj[c.Attr] {
			return fmt.Errorf("algebra: %s: constant attribute %q must be projected (normal form)", q.Name, c.Attr)
		}
	}
	if len(q.Projection) == 0 {
		return fmt.Errorf("algebra: %s: empty projection", q.Name)
	}
	return nil
}

// ViewSchema derives the output relation schema: one attribute per
// projection entry, carrying the source attribute's domain (constant-
// relation attributes get the infinite domain).
func (q *SPC) ViewSchema(db *rel.DBSchema) (*rel.Schema, error) {
	if err := q.Validate(db); err != nil {
		return nil, err
	}
	return q.schema(db)
}

// schema is ViewSchema for a query Validate accepted: it derives the
// schema without validating again.
func (q *SPC) schema(db *rel.DBSchema) (*rel.Schema, error) {
	idx := q.attrIndex()
	consts := q.constAttrs()
	attrs := make([]rel.Attribute, 0, len(q.Projection))
	for _, y := range q.Projection {
		if _, isConst := consts[y]; isConst {
			attrs = append(attrs, rel.Attribute{Name: y, Domain: rel.Infinite()})
			continue
		}
		p := idx[y]
		src := db.Relation(q.Atoms[p.Atom].Source)
		attrs = append(attrs, rel.Attribute{Name: y, Domain: src.Attrs[p.Col].Domain})
	}
	return rel.NewSchema(q.Name, attrs...)
}

// Fragment classifies the query into the paper's sub-languages by the
// operators it actually uses, e.g. "SP", "C", "SPC". Renaming is implicit
// in every fragment. A query that uses no operator (single atom, full
// projection, no selection) is classified "C" by convention of being a
// plain conjunctive query.
func (q *SPC) Fragment() string {
	var b strings.Builder
	if len(q.Selection) > 0 {
		b.WriteByte('S')
	}
	total := 0
	for _, atom := range q.Atoms {
		total += len(atom.Attrs)
	}
	if len(q.Projection) < total+len(q.Consts) {
		b.WriteByte('P')
	}
	if len(q.Atoms) > 1 || len(q.Consts) > 0 {
		b.WriteByte('C')
	}
	if b.Len() == 0 {
		return "C"
	}
	return b.String()
}

// Eval computes the view over a concrete database. The result instance has
// the schema returned by ViewSchema and is deduplicated (set semantics).
func (q *SPC) Eval(db *rel.Database) (*rel.Instance, error) {
	vs, err := q.ViewSchema(db.Schema)
	if err != nil {
		return nil, err
	}
	out := rel.NewInstance(vs)
	idx := q.attrIndex()
	consts := q.constAttrs()

	// Collect the participating instances.
	ins := make([]*rel.Instance, len(q.Atoms))
	for i, atom := range q.Atoms {
		in := db.Instance(atom.Source)
		if in == nil {
			return nil, fmt.Errorf("algebra: %s: database has no instance for %q", q.Name, atom.Source)
		}
		ins[i] = in
	}

	// Nested-loop product with early selection.
	row := make([]rel.Tuple, len(q.Atoms))
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(q.Atoms) {
			get := func(a string) string {
				p := idx[a]
				return row[p.Atom][p.Col]
			}
			for _, e := range q.Selection {
				l := get(e.Left)
				if e.IsConst {
					if l != e.Right {
						return nil
					}
				} else if l != get(e.Right) {
					return nil
				}
			}
			t := make(rel.Tuple, len(q.Projection))
			for j, y := range q.Projection {
				if v, isConst := consts[y]; isConst {
					t[j] = v
				} else {
					t[j] = get(y)
				}
			}
			return out.Insert(t)
		}
		for _, tr := range ins[i].Tuples {
			row[i] = tr
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if len(q.Atoms) == 0 {
		return nil, fmt.Errorf("algebra: %s: query has no relation atoms", q.Name)
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return out.Dedup(), nil
}

func (q *SPC) String() string {
	var parts []string
	for _, c := range q.Consts {
		parts = append(parts, fmt.Sprintf("{%s:'%s'}", c.Attr, c.Value))
	}
	for _, a := range q.Atoms {
		parts = append(parts, fmt.Sprintf("%s(%s)", a.Source, strings.Join(a.Attrs, ",")))
	}
	sel := make([]string, len(q.Selection))
	for i, e := range q.Selection {
		sel[i] = e.String()
	}
	s := fmt.Sprintf("π{%s}(", strings.Join(q.Projection, ","))
	if len(sel) > 0 {
		s += fmt.Sprintf("σ[%s](", strings.Join(sel, " ∧ "))
	}
	s += strings.Join(parts, " × ")
	if len(sel) > 0 {
		s += ")"
	}
	return q.Name + " = " + s + ")"
}
