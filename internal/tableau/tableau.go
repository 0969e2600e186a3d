// Package tableau converts SPC queries in normal form into tableau
// representations (Klug & Price; Theorem 1 and Corollary 2 in the appendix
// of Fan et al., VLDB 2008): one free tuple of fresh variables per relation
// atom, selection conditions folded in by equating variables and binding
// constants, and a single summary row mapping each view attribute to a term.
//
// Tableaux are built inside a caller-supplied sym.State so that several
// tableaux (e.g. the two copies used by the propagation test, or one per
// union disjunct) can share one term universe.
package tableau

import (
	"cfdprop/internal/algebra"
	"cfdprop/internal/chase"
	"cfdprop/internal/rel"
	"cfdprop/internal/sym"
)

// Tableau is the tableau form of one SPC disjunct, materialized as rows of
// a chase instance plus a summary.
type Tableau struct {
	Query   *algebra.SPC
	Rows    []*chase.Row        // one per relation atom, in atom order
	Summary map[string]sym.Term // view attribute -> term (constants for Rc)
}

// ErrInconsistent reports that a disjunct's selection condition is
// self-contradictory (e.g. A = 'a' ∧ A = 'b'); such a disjunct produces no
// tuples on any source database.
type ErrInconsistent struct{ Cause error }

func (e ErrInconsistent) Error() string { return "tableau: inconsistent selection: " + e.Cause.Error() }
func (e ErrInconsistent) Unwrap() error { return e.Cause }

// Build constructs the tableau of q over the source schema db, allocating
// fresh variables in ci's state and adding the free tuples as rows of ci.
// Each source relation must already be declared in ci (DeclareSources does
// this). Build returns ErrInconsistent when the selection condition
// contradicts itself.
//
// q must have passed q.Validate(db): Build does not validate it again, so
// that a caller building many tableaux of one view validates it once.
func Build(ci *chase.Inst, db *rel.DBSchema, q *algebra.SPC) (*Tableau, error) {
	st := ci.St
	terms := make(map[string]sym.Term) // atom attribute -> term
	t := &Tableau{Query: q, Summary: make(map[string]sym.Term)}

	for _, atom := range q.Atoms {
		src := db.Relation(atom.Source)
		cols := make([]sym.Term, src.Arity())
		for i := range cols {
			cols[i] = st.NewVar(src.Attrs[i].Domain)
			terms[atom.Attrs[i]] = cols[i]
		}
		row, err := ci.AddRow(atom.Source, cols)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}

	for _, e := range q.Selection {
		l := terms[e.Left]
		var err error
		if e.IsConst {
			err = st.Bind(l, e.Right)
		} else {
			err = st.Equate(l, terms[e.Right])
		}
		if err != nil {
			return nil, ErrInconsistent{Cause: err}
		}
	}

	consts := make(map[string]string, len(q.Consts))
	for _, c := range q.Consts {
		consts[c.Attr] = c.Value
	}
	for _, y := range q.Projection {
		if v, isConst := consts[y]; isConst {
			t.Summary[y] = sym.Constant(v)
		} else {
			t.Summary[y] = terms[y]
		}
	}
	return t, nil
}

// DeclareSources declares every relation of the source schema in the chase
// instance, so tableaux over any of them can be built.
func DeclareSources(ci *chase.Inst, db *rel.DBSchema) error {
	for _, s := range db.Relations() {
		if err := ci.DeclareRelation(s.Name, s.AttrNames()); err != nil {
			return err
		}
	}
	return nil
}
