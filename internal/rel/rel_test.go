package rel

import (
	"testing"
	"testing/quick"
)

func TestDomainContains(t *testing.T) {
	inf := Infinite()
	if !inf.Contains("anything at all") {
		t.Error("infinite domain must contain everything")
	}
	b := Bool()
	if !b.Contains("0") || !b.Contains("1") || b.Contains("2") {
		t.Error("bool domain must be exactly {0,1}")
	}
	if b.Size() != 2 || inf.Size() != -1 {
		t.Error("wrong sizes")
	}
}

func TestFiniteDomainDedupSort(t *testing.T) {
	d := FiniteDomain("d", "c", "a", "b", "a")
	if d.Size() != 3 {
		t.Fatalf("size = %d, want 3", d.Size())
	}
	if d.Values[0] != "a" || d.Values[2] != "c" {
		t.Errorf("values not sorted: %v", d.Values)
	}
}

func TestDomainIntersect(t *testing.T) {
	a := FiniteDomain("a", "1", "2", "3")
	b := FiniteDomain("b", "2", "3", "4")
	i := a.Intersect(b)
	if i.Size() != 2 || !i.Contains("2") || !i.Contains("3") {
		t.Errorf("bad intersection: %v", i)
	}
	if got := a.Intersect(Infinite()); got.Size() != 3 {
		t.Error("intersecting with infinite must be identity")
	}
	if got := Infinite().Intersect(b); got.Size() != 3 {
		t.Error("intersecting infinite with finite must give the finite one")
	}
}

// Property: intersection is commutative and idempotent on finite domains.
func TestDomainIntersectProperties(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		toVals := func(v []uint8) []string {
			out := make([]string, len(v))
			for i, x := range v {
				out[i] = string(rune('a' + x%6))
			}
			return out
		}
		a := FiniteDomain("a", toVals(xs)...)
		b := FiniteDomain("b", toVals(ys)...)
		ab := a.Intersect(b)
		ba := b.Intersect(a)
		if ab.Size() != ba.Size() {
			return false
		}
		for _, v := range ab.Values {
			if !ba.Contains(v) {
				return false
			}
		}
		aa := a.Intersect(a)
		return aa.Size() == a.Size()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSchemaBasics(t *testing.T) {
	s := MustSchema("R",
		Attribute{Name: "A", Domain: Infinite()},
		Attribute{Name: "B", Domain: Bool()},
	)
	if s.Arity() != 2 {
		t.Errorf("arity = %d", s.Arity())
	}
	if i, ok := s.Index("B"); !ok || i != 1 {
		t.Errorf("Index(B) = %d, %v", i, ok)
	}
	if _, ok := s.Index("C"); ok {
		t.Error("Index(C) must report a missing attribute")
	}
	if !s.HasFiniteAttr() {
		t.Error("schema has a bool attribute")
	}
	if _, err := NewSchema("R", Attribute{Name: "A"}, Attribute{Name: "A"}); err == nil {
		t.Error("duplicate attribute must be rejected")
	}
	if _, err := NewSchema(""); err == nil {
		t.Error("empty schema name must be rejected")
	}
	if _, err := NewSchema("R", Attribute{Name: ""}); err == nil {
		t.Error("empty attribute name must be rejected")
	}
}

func TestInstanceInsertValidation(t *testing.T) {
	s := MustSchema("R",
		Attribute{Name: "A", Domain: Bool()},
		Attribute{Name: "B", Domain: Infinite()},
	)
	in := NewInstance(s)
	if err := in.Insert(Tuple{"0", "hello"}); err != nil {
		t.Errorf("valid insert rejected: %v", err)
	}
	if err := in.Insert(Tuple{"5", "hello"}); err == nil {
		t.Error("value outside finite domain must be rejected")
	}
	if err := in.Insert(Tuple{"0"}); err == nil {
		t.Error("wrong arity must be rejected")
	}
}

func TestInstanceDedup(t *testing.T) {
	s := InfiniteSchema("R", "A")
	in := NewInstance(s)
	in.MustInsert("x")
	in.MustInsert("x")
	in.MustInsert("y")
	if in.Dedup().Len() != 2 {
		t.Errorf("dedup failed: %v", in.Tuples)
	}
}

func TestTupleKeyInjective(t *testing.T) {
	// ("a,b") vs ("a","b")-style collisions must not happen.
	a := Tuple{"a,b"}
	b := Tuple{"a", "b"}
	if a.Key() == b.Key() {
		t.Error("keys must distinguish arity")
	}
	c := Tuple{"ab", ""}
	d := Tuple{"a", "b"}
	if c.Key() == d.Key() {
		t.Error("keys must be length-prefixed")
	}
}

func TestInsertIsolation(t *testing.T) {
	s := InfiniteSchema("R", "A")
	in := NewInstance(s)
	tpl := Tuple{"x"}
	in.MustInsert(tpl...)
	tpl[0] = "mutated"
	if in.Tuples[0][0] != "x" {
		t.Error("Insert must copy the tuple")
	}
}

func TestDatabase(t *testing.T) {
	db := MustDBSchema(InfiniteSchema("R", "A"), InfiniteSchema("S", "B"))
	if db.Relation("R") == nil || db.Relation("X") != nil {
		t.Error("Relation lookup broken")
	}
	if len(db.Names()) != 2 {
		t.Error("Names broken")
	}
	d := NewDatabase(db)
	d.MustInsert("R", "1")
	if d.Instance("R").Len() != 1 {
		t.Error("insert broken")
	}
	if err := d.Insert("X", Tuple{"1"}); err == nil {
		t.Error("unknown relation must be rejected")
	}
	if _, err := NewDBSchema(InfiniteSchema("R", "A"), InfiniteSchema("R", "B")); err == nil {
		t.Error("duplicate relation must be rejected")
	}
}
