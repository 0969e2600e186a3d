package tableau

import (
	"errors"
	"testing"

	"cfdprop/internal/algebra"
	"cfdprop/internal/chase"
	"cfdprop/internal/rel"
	"cfdprop/internal/sym"
)

func setup(t *testing.T) (*rel.DBSchema, *chase.Inst, *sym.State) {
	t.Helper()
	db := rel.MustDBSchema(
		rel.InfiniteSchema("S", "A", "B"),
		rel.InfiniteSchema("T", "C", "D"),
	)
	st := sym.NewState()
	ci := chase.NewInst(st)
	if err := DeclareSources(ci, db); err != nil {
		t.Fatal(err)
	}
	return db, ci, st
}

func TestBuildBasic(t *testing.T) {
	db, ci, st := setup(t)
	q := &algebra.SPC{
		Name: "V",
		Atoms: []algebra.RelAtom{
			{Source: "S", Attrs: []string{"a", "b"}},
			{Source: "T", Attrs: []string{"c", "d"}},
		},
		Selection:  []algebra.EqAtom{{Left: "a", Right: "c"}, {Left: "d", IsConst: true, Right: "7"}},
		Projection: []string{"a", "b", "d"},
	}
	tb, err := Build(ci, db, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(tb.Rows))
	}
	// Selection a = c must have equated the two terms.
	if !st.SameTerm(tb.Rows[0].Cols[0], tb.Rows[1].Cols[0]) {
		t.Error("a and c must be one term")
	}
	// d = 7 must be bound.
	if rd := st.Resolve(tb.Rows[1].Cols[1]); rd.IsVar || rd.Const != "7" {
		t.Errorf("d must resolve to 7, got %v", rd)
	}
	// Summary covers exactly the projection.
	if len(tb.Summary) != 3 {
		t.Errorf("summary has %d entries, want 3", len(tb.Summary))
	}
	if _, ok := tb.Summary["a"]; !ok {
		t.Error("projected attribute a must be in the summary")
	}
	if _, ok := tb.Summary["c"]; ok {
		t.Error("unprojected attribute must not be in the summary")
	}
}

func TestBuildConstRelation(t *testing.T) {
	db, ci, _ := setup(t)
	q := &algebra.SPC{
		Name:       "V",
		Consts:     []algebra.ConstAtom{{Attr: "CC", Value: "44"}},
		Atoms:      []algebra.RelAtom{{Source: "S", Attrs: []string{"a", "b"}}},
		Projection: []string{"CC", "a"},
	}
	tb, err := Build(ci, db, q)
	if err != nil {
		t.Fatal(err)
	}
	cc, ok := tb.Summary["CC"]
	if !ok {
		t.Fatal("CC must be in the summary")
	}
	if cc.IsVar || cc.Const != "44" {
		t.Errorf("CC must be the constant 44, got %v", cc)
	}
}

func TestBuildInconsistentSelection(t *testing.T) {
	db, ci, _ := setup(t)
	q := &algebra.SPC{
		Name:  "V",
		Atoms: []algebra.RelAtom{{Source: "S", Attrs: []string{"a", "b"}}},
		Selection: []algebra.EqAtom{
			{Left: "a", IsConst: true, Right: "1"},
			{Left: "b", Right: "a"},
			{Left: "b", IsConst: true, Right: "2"},
		},
		Projection: []string{"a"},
	}
	_, err := Build(ci, db, q)
	var inc ErrInconsistent
	if !errors.As(err, &inc) {
		t.Fatalf("want ErrInconsistent, got %v", err)
	}
}

func TestTwoDisjointCopies(t *testing.T) {
	db, ci, st := setup(t)
	q := &algebra.SPC{
		Name:       "V",
		Atoms:      []algebra.RelAtom{{Source: "S", Attrs: []string{"a", "b"}}},
		Projection: []string{"a", "b"},
	}
	t1, err := Build(ci, db, q)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Build(ci, db, q)
	if err != nil {
		t.Fatal(err)
	}
	if st.SameTerm(t1.Summary["a"], t2.Summary["a"]) {
		t.Error("two builds must allocate disjoint variables")
	}
	if len(ci.Rows("S")) != 2 {
		t.Errorf("both copies must add rows: got %d", len(ci.Rows("S")))
	}
}

func TestBuildRespectsDomains(t *testing.T) {
	db := rel.MustDBSchema(rel.MustSchema("S",
		rel.Attribute{Name: "A", Domain: rel.Bool()},
		rel.Attribute{Name: "B", Domain: rel.Infinite()},
	))
	st := sym.NewState()
	ci := chase.NewInst(st)
	if err := DeclareSources(ci, db); err != nil {
		t.Fatal(err)
	}
	q := &algebra.SPC{
		Name:       "V",
		Atoms:      []algebra.RelAtom{{Source: "S", Attrs: []string{"a", "b"}}},
		Projection: []string{"a", "b"},
	}
	tb, err := Build(ci, db, q)
	if err != nil {
		t.Fatal(err)
	}
	if d := st.Domain(tb.Rows[0].Cols[0]); !d.Finite {
		t.Error("variable for a finite-domain column must carry its domain")
	}
	// Selection constant outside the domain must make the disjunct
	// inconsistent (no tuple can ever match).
	st2 := sym.NewState()
	ci2 := chase.NewInst(st2)
	if err := DeclareSources(ci2, db); err != nil {
		t.Fatal(err)
	}
	q2 := &algebra.SPC{
		Name:       "V",
		Atoms:      []algebra.RelAtom{{Source: "S", Attrs: []string{"a", "b"}}},
		Selection:  []algebra.EqAtom{{Left: "a", IsConst: true, Right: "0"}},
		Projection: []string{"a"},
	}
	if _, err := Build(ci2, db, q2); err != nil {
		t.Fatalf("in-domain selection must build: %v", err)
	}
}
