package algebra

import (
	"fmt"

	"cfdprop/internal/rel"
)

// SPCU is a union of union-compatible SPC queries in normal form
// V1 ∪ … ∪ Vn. All disjuncts must project the same attribute list (same
// names, same order) so the union has a well-defined output schema.
type SPCU struct {
	Name      string
	Disjuncts []*SPC
}

// NewSPCU builds an SPCU query, overriding each disjunct's name with the
// union's output name for schema purposes.
func NewSPCU(name string, disjuncts ...*SPC) (*SPCU, error) {
	if len(disjuncts) == 0 {
		return nil, fmt.Errorf("algebra: union %q needs at least one disjunct", name)
	}
	u := &SPCU{Name: name, Disjuncts: disjuncts}
	return u, nil
}

// Validate checks every disjunct and union compatibility.
func (u *SPCU) Validate(db *rel.DBSchema) error {
	base := u.Disjuncts[0].Projection
	for i, d := range u.Disjuncts {
		if err := d.Validate(db); err != nil {
			return fmt.Errorf("algebra: union %s disjunct %d: %w", u.Name, i, err)
		}
		if len(d.Projection) != len(base) {
			return fmt.Errorf("algebra: union %s: disjunct %d projects %d attributes, disjunct 0 projects %d",
				u.Name, i, len(d.Projection), len(base))
		}
		for j := range base {
			if d.Projection[j] != base[j] {
				return fmt.Errorf("algebra: union %s: disjunct %d projection %q at position %d, want %q",
					u.Name, i, d.Projection[j], j, base[j])
			}
		}
	}
	return nil
}

// ViewSchema derives the union's output schema (from the first disjunct,
// with domains widened to the union across disjuncts when they differ; two
// finite domains union to a finite domain, anything else is infinite).
func (u *SPCU) ViewSchema(db *rel.DBSchema) (*rel.Schema, error) {
	if err := u.Validate(db); err != nil {
		return nil, err
	}
	return u.Schema(db)
}

// Schema is ViewSchema for a union Validate accepted: it derives the
// schema, the disjuncts' included, without validating again. On a union
// Validate rejects it may panic.
func (u *SPCU) Schema(db *rel.DBSchema) (*rel.Schema, error) {
	var attrs []rel.Attribute
	for i, d := range u.Disjuncts {
		s, err := d.schema(db)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			attrs = append(attrs, s.Attrs...)
			continue
		}
		for j := range attrs {
			attrs[j].Domain = unionDomain(attrs[j].Domain, s.Attrs[j].Domain)
		}
	}
	return rel.NewSchema(u.Name, attrs...)
}

func unionDomain(a, b rel.Domain) rel.Domain {
	if !a.Finite || !b.Finite {
		return rel.Infinite()
	}
	return rel.FiniteDomain(a.Name, append(append([]string(nil), a.Values...), b.Values...)...)
}

// Eval computes the union over a concrete database, with set semantics.
func (u *SPCU) Eval(db *rel.Database) (*rel.Instance, error) {
	vs, err := u.ViewSchema(db.Schema)
	if err != nil {
		return nil, err
	}
	out := rel.NewInstance(vs)
	for _, d := range u.Disjuncts {
		in, err := d.Eval(db)
		if err != nil {
			return nil, err
		}
		for _, t := range in.Tuples {
			if err := out.Insert(t); err != nil {
				return nil, err
			}
		}
	}
	return out.Dedup(), nil
}

func (u *SPCU) String() string {
	s := u.Name + " ="
	for i, d := range u.Disjuncts {
		if i > 0 {
			s += " ∪"
		}
		s += " (" + d.String() + ")"
	}
	return s
}

// Single wraps an SPC query as a one-disjunct SPCU.
func Single(q *SPC) *SPCU {
	return &SPCU{Name: q.Name, Disjuncts: []*SPC{q}}
}
