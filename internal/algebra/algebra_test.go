package algebra

import (
	"testing"

	"cfdprop/internal/rel"
)

func twoRelSchema() *rel.DBSchema {
	return rel.MustDBSchema(
		rel.InfiniteSchema("S", "A", "B"),
		rel.InfiniteSchema("T", "C", "D", "E"),
	)
}

func TestValidateAcceptsNormalForm(t *testing.T) {
	db := twoRelSchema()
	q := &SPC{
		Name:   "V",
		Consts: []ConstAtom{{Attr: "CC", Value: "44"}},
		Atoms: []RelAtom{
			{Source: "S", Attrs: []string{"x1", "x2"}},
			{Source: "T", Attrs: []string{"y1", "y2", "y3"}},
		},
		Selection:  []EqAtom{{Left: "x1", Right: "y1"}, {Left: "y2", IsConst: true, Right: "7"}},
		Projection: []string{"CC", "x1", "y3"},
	}
	if err := q.Validate(db); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	db := twoRelSchema()
	cases := []struct {
		name string
		q    *SPC
	}{
		{"unknown source", &SPC{Name: "V", Atoms: []RelAtom{{Source: "X", Attrs: []string{"a"}}}, Projection: []string{"a"}}},
		{"wrong arity", &SPC{Name: "V", Atoms: []RelAtom{{Source: "S", Attrs: []string{"a"}}}, Projection: []string{"a"}}},
		{"duplicate attrs", &SPC{Name: "V", Atoms: []RelAtom{
			{Source: "S", Attrs: []string{"a", "b"}},
			{Source: "S", Attrs: []string{"a", "c"}},
		}, Projection: []string{"a"}}},
		{"selection unknown attr", &SPC{Name: "V", Atoms: []RelAtom{{Source: "S", Attrs: []string{"a", "b"}}},
			Selection: []EqAtom{{Left: "z", IsConst: true, Right: "1"}}, Projection: []string{"a"}}},
		{"projection unknown attr", &SPC{Name: "V", Atoms: []RelAtom{{Source: "S", Attrs: []string{"a", "b"}}},
			Projection: []string{"z"}}},
		{"unprojected const", &SPC{Name: "V", Consts: []ConstAtom{{Attr: "CC", Value: "1"}},
			Atoms: []RelAtom{{Source: "S", Attrs: []string{"a", "b"}}}, Projection: []string{"a"}}},
		{"empty projection", &SPC{Name: "V", Atoms: []RelAtom{{Source: "S", Attrs: []string{"a", "b"}}}}},
	}
	for _, c := range cases {
		if err := c.q.Validate(db); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestFragmentClassification(t *testing.T) {
	db := twoRelSchema()
	atomS := RelAtom{Source: "S", Attrs: []string{"a", "b"}}
	atomT := RelAtom{Source: "T", Attrs: []string{"c", "d", "e"}}
	sel := []EqAtom{{Left: "a", IsConst: true, Right: "1"}}

	cases := []struct {
		name string
		q    *SPC
		want string
	}{
		{"identity is C", &SPC{Name: "V", Atoms: []RelAtom{atomS}, Projection: []string{"a", "b"}}, "C"},
		{"S", &SPC{Name: "V", Atoms: []RelAtom{atomS}, Selection: sel, Projection: []string{"a", "b"}}, "S"},
		{"P", &SPC{Name: "V", Atoms: []RelAtom{atomS}, Projection: []string{"a"}}, "P"},
		{"C product", &SPC{Name: "V", Atoms: []RelAtom{atomS, atomT}, Projection: []string{"a", "b", "c", "d", "e"}}, "C"},
		{"C const", &SPC{Name: "V", Consts: []ConstAtom{{Attr: "k", Value: "1"}}, Atoms: []RelAtom{atomS}, Projection: []string{"k", "a", "b"}}, "C"},
		{"SP", &SPC{Name: "V", Atoms: []RelAtom{atomS}, Selection: sel, Projection: []string{"b"}}, "SP"},
		{"SC", &SPC{Name: "V", Atoms: []RelAtom{atomS, atomT}, Selection: sel, Projection: []string{"a", "b", "c", "d", "e"}}, "SC"},
		{"PC", &SPC{Name: "V", Atoms: []RelAtom{atomS, atomT}, Projection: []string{"a", "c"}}, "PC"},
		{"SPC", &SPC{Name: "V", Atoms: []RelAtom{atomS, atomT}, Selection: sel, Projection: []string{"a", "c"}}, "SPC"},
	}
	for _, c := range cases {
		if err := c.q.Validate(db); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := c.q.Fragment(); got != c.want {
			t.Errorf("%s: Fragment() = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestEvalSelectProjectProduct(t *testing.T) {
	db := twoRelSchema()
	d := rel.NewDatabase(db)
	d.MustInsert("S", "1", "x")
	d.MustInsert("S", "2", "y")
	d.MustInsert("T", "1", "p", "q")
	d.MustInsert("T", "2", "r", "s")
	d.MustInsert("T", "3", "t", "u")

	q := &SPC{
		Name: "V",
		Atoms: []RelAtom{
			{Source: "S", Attrs: []string{"a", "b"}},
			{Source: "T", Attrs: []string{"c", "d", "e"}},
		},
		Selection:  []EqAtom{{Left: "a", Right: "c"}},
		Projection: []string{"b", "d"},
	}
	out, err := q.Eval(d)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"x,p": true, "y,r": true}
	if out.Len() != len(want) {
		t.Fatalf("got %d tuples, want %d: %v", out.Len(), len(want), out)
	}
	for _, tp := range out.Tuples {
		if !want[tp[0]+","+tp[1]] {
			t.Errorf("unexpected tuple %v", tp)
		}
	}
}

func TestEvalConstRelationAndConstSelection(t *testing.T) {
	db := twoRelSchema()
	d := rel.NewDatabase(db)
	d.MustInsert("S", "1", "x")
	d.MustInsert("S", "2", "y")

	q := &SPC{
		Name:       "V",
		Consts:     []ConstAtom{{Attr: "CC", Value: "44"}},
		Atoms:      []RelAtom{{Source: "S", Attrs: []string{"a", "b"}}},
		Selection:  []EqAtom{{Left: "a", IsConst: true, Right: "1"}},
		Projection: []string{"CC", "b"},
	}
	out, err := q.Eval(d)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || out.Tuples[0][0] != "44" || out.Tuples[0][1] != "x" {
		t.Fatalf("got %v, want [(44, x)]", out.Tuples)
	}
}

func TestEvalDeduplicates(t *testing.T) {
	db := twoRelSchema()
	d := rel.NewDatabase(db)
	d.MustInsert("S", "1", "x")
	d.MustInsert("S", "2", "x")
	q := &SPC{
		Name:       "V",
		Atoms:      []RelAtom{{Source: "S", Attrs: []string{"a", "b"}}},
		Projection: []string{"b"},
	}
	out, err := q.Eval(d)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Errorf("projection must deduplicate: got %d tuples", out.Len())
	}
}

func TestSPCUUnionCompatibility(t *testing.T) {
	db := twoRelSchema()
	q1 := &SPC{Name: "V", Atoms: []RelAtom{{Source: "S", Attrs: []string{"a", "b"}}}, Projection: []string{"a", "b"}}
	q2 := &SPC{Name: "V", Atoms: []RelAtom{{Source: "S", Attrs: []string{"a", "b"}}}, Projection: []string{"b", "a"}}
	u, err := NewSPCU("V", q1, q2)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Validate(db); err == nil {
		t.Error("incompatible projections must be rejected")
	}
	u2, err := NewSPCU("V", q1, q1)
	if err != nil {
		t.Fatal(err)
	}
	if err := u2.Validate(db); err != nil {
		t.Errorf("compatible union rejected: %v", err)
	}
}

func TestSPCUEvalUnion(t *testing.T) {
	db := twoRelSchema()
	d := rel.NewDatabase(db)
	d.MustInsert("S", "1", "x")
	d.MustInsert("S", "2", "y")
	sel := func(v string) *SPC {
		return &SPC{
			Name:       "V",
			Atoms:      []RelAtom{{Source: "S", Attrs: []string{"a", "b"}}},
			Selection:  []EqAtom{{Left: "a", IsConst: true, Right: v}},
			Projection: []string{"a", "b"},
		}
	}
	u, err := NewSPCU("V", sel("1"), sel("2"), sel("1"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := u.Eval(d)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Errorf("union with overlap must have 2 tuples, got %d", out.Len())
	}
}

func TestViewSchemaDomains(t *testing.T) {
	db := rel.MustDBSchema(rel.MustSchema("S",
		rel.Attribute{Name: "A", Domain: rel.Bool()},
		rel.Attribute{Name: "B", Domain: rel.Infinite()},
	))
	q := &SPC{
		Name:       "V",
		Consts:     []ConstAtom{{Attr: "K", Value: "7"}},
		Atoms:      []RelAtom{{Source: "S", Attrs: []string{"a", "b"}}},
		Projection: []string{"K", "a", "b"},
	}
	vs, err := q.ViewSchema(db)
	if err != nil {
		t.Fatal(err)
	}
	da, _ := vs.Domain("a")
	if !da.Finite {
		t.Error("view attribute a must inherit the finite domain of S.A")
	}
	dk, _ := vs.Domain("K")
	if dk.Finite {
		t.Error("constant attribute K must have the infinite domain")
	}
}
