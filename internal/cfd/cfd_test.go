package cfd

import (
	"strings"
	"testing"
	"testing/quick"

	"cfdprop/internal/rel"
)

func TestPatternMatches(t *testing.T) {
	if !Any().Matches("anything") {
		t.Error("wildcard must match any value")
	}
	if !Eq("a").Matches("a") {
		t.Error("Eq(a) must match a")
	}
	if Eq("a").Matches("b") {
		t.Error("Eq(a) must not match b")
	}
}

func TestPatternLE(t *testing.T) {
	if !Eq("a").LE(Any()) {
		t.Error("a ≤ _ must hold")
	}
	if !Eq("a").LE(Eq("a")) {
		t.Error("a ≤ a must hold")
	}
	if Any().LE(Eq("a")) {
		t.Error("_ ≤ a must not hold")
	}
	if Eq("a").LE(Eq("b")) {
		t.Error("a ≤ b must not hold")
	}
}

// Property: ≤ is a partial order on patterns (reflexive, antisymmetric,
// transitive), exercised over a small generated pattern space.
func TestPatternLEPartialOrderProperty(t *testing.T) {
	pats := []Pattern{Any(), Eq("a"), Eq("b"), Eq("c")}
	for _, p := range pats {
		if !p.LE(p) {
			t.Errorf("reflexivity fails for %s", p)
		}
	}
	for _, p := range pats {
		for _, q := range pats {
			if p.LE(q) && q.LE(p) && p != q {
				t.Errorf("antisymmetry fails for %s, %s", p, q)
			}
			for _, r := range pats {
				if p.LE(q) && q.LE(r) && !p.LE(r) {
					t.Errorf("transitivity fails for %s ≤ %s ≤ %s", p, q, r)
				}
			}
		}
	}
}

// Property: Min (the ⊕ per-attribute merge) is commutative and yields a
// lower bound of both arguments when defined.
func TestMinProperty(t *testing.T) {
	pats := []Pattern{Any(), Eq("a"), Eq("b")}
	for _, p := range pats {
		for _, q := range pats {
			m1, ok1 := Min(p, q)
			m2, ok2 := Min(q, p)
			if ok1 != ok2 {
				t.Fatalf("Min definedness not symmetric for %s, %s", p, q)
			}
			if !ok1 {
				continue
			}
			if m1 != m2 {
				t.Errorf("Min(%s,%s)=%s but Min(%s,%s)=%s", p, q, m1, q, p, m2)
			}
			if !m1.LE(p) || !m1.LE(q) {
				t.Errorf("Min(%s,%s)=%s is not a lower bound", p, q, m1)
			}
		}
	}
}

// customersSchema is the uniform schema of Example 1.1.
func customersSchema(name string) *rel.Schema {
	return rel.InfiniteSchema(name, "AC", "phn", "name", "street", "city", "zip")
}

// viewSchema is the target schema R of Example 1.1 (sources + CC).
func viewSchema() *rel.Schema {
	return rel.InfiniteSchema("R", "AC", "phn", "name", "street", "city", "zip", "CC")
}

// figure1View materializes V(D1, D2, D3) of Fig. 1 directly.
func figure1View(t *testing.T) *rel.Instance {
	t.Helper()
	in := rel.NewInstance(viewSchema())
	in.MustInsert("20", "1234567", "Mike", "Portland", "LDN", "W1B 1JL", "44")
	in.MustInsert("20", "3456789", "Rick", "Portland", "LDN", "W1B 1JL", "44")
	in.MustInsert("610", "3456789", "Joe", "Copley", "Darby", "19082", "01")
	in.MustInsert("610", "1234567", "Mary", "Walnut", "Darby", "19082", "01")
	in.MustInsert("20", "3456789", "Marx", "Kruise", "Amsterdam", "1096", "31")
	in.MustInsert("36", "1234567", "Bart", "Grote", "Almere", "1316", "31")
	return in
}

// TestExample11And22 replays Examples 1.1 and 2.2 of the paper: the view
// satisfies ϕ1, ϕ2, ϕ4 but violates the plain FD zip → street and the
// CC-less variant of ϕ4.
func TestExample11And22(t *testing.T) {
	v := figure1View(t)

	phi1 := MustParse(`R([CC=44, zip] -> [street])`)
	phi2 := MustParse(`R([CC=44, AC] -> [city])`)
	phi3 := MustParse(`R([CC=31, AC] -> [city])`)
	phi4 := MustParse(`R([CC=44, AC=20] -> [city=LDN])`)
	phi5 := MustParse(`R([CC=31, AC=20] -> [city=Amsterdam])`)
	for _, phi := range []*CFD{phi1, phi2, phi3, phi4, phi5} {
		ok, err := Satisfies(v, phi)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("view must satisfy %s", phi)
		}
	}

	// f1 as a plain FD fails on the view: the US tuples share zip 19082
	// but differ on street.
	f1 := MustParse(`R(zip -> street)`)
	ok, err := Satisfies(v, f1)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Errorf("view must violate %s (t3, t4 of Fig. 1)", f1)
	}

	// Example 2.2: dropping CC from ϕ4 breaks it: AC 20 is both London and
	// Amsterdam.
	phi4NoCC := MustParse(`R([AC=20] -> [city=LDN])`)
	ok, err = Satisfies(v, phi4NoCC)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Errorf("view must violate %s (t1, t5 of Fig. 1)", phi4NoCC)
	}

	// Also the FD variant AC → city fails.
	f2 := MustParse(`R(AC -> city)`)
	ok, err = Satisfies(v, f2)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Errorf("view must violate %s", f2)
	}
}

func TestSingleTupleConstantRHS(t *testing.T) {
	// (A -> A, (_ ‖ a)) asserts the column is constant 'a'; a single tuple
	// with a different value violates it.
	s := rel.InfiniteSchema("R", "A", "B")
	in := rel.NewInstance(s)
	in.MustInsert("b", "x")
	c := NewConstant("R", "A", "a")
	ok, err := Satisfies(in, c)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("single tuple with A=b must violate (A->A,(_||a))")
	}
	vs, err := Violations(in, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].T1 != 0 || vs[0].T2 != 0 {
		t.Errorf("want one self-pair violation, got %v", vs)
	}
}

func TestEqualityCFD(t *testing.T) {
	s := rel.InfiniteSchema("R", "A", "B")
	in := rel.NewInstance(s)
	in.MustInsert("x", "x")
	in.MustInsert("y", "y")
	eq := NewEquality("R", "A", "B")
	ok, err := Satisfies(in, eq)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("A == B must hold")
	}
	in.MustInsert("x", "y")
	ok, err = Satisfies(in, eq)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("A == B must fail after inserting (x, y)")
	}
}

func TestIsTrivial(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{`R([A] -> [A])`, true},            // (_ ‖ _)
		{`R([A=a] -> [A=a])`, true},        // η1 = η2
		{`R([A=a] -> [A])`, true},          // const ‖ wildcard
		{`R([A] -> [A=a])`, false},         // column-constant, meaningful
		{`R([A=a] -> [A=b])`, false},       // asserts no tuple has A=a
		{`R([A, B] -> [C])`, false},        // plain FD
		{`R([A=a, B] -> [A=a, C])`, false}, // multi-RHS with nontrivial part
		{`R([A=a, B] -> [A=a])`, true},     // multi... single trivial RHS
	}
	for _, c := range cases {
		got := MustParse(c.src).IsTrivial()
		if got != c.want {
			t.Errorf("IsTrivial(%s) = %v, want %v", c.src, got, c.want)
		}
	}
	if !NewEquality("R", "A", "A").IsTrivial() {
		t.Error("A == A must be trivial")
	}
	if NewEquality("R", "A", "B").IsTrivial() {
		t.Error("A == B must not be trivial")
	}
}

func TestNormalize(t *testing.T) {
	c := MustParse(`R([A=1, B] -> [C=2, D])`)
	ns := c.Normalize()
	if len(ns) != 2 {
		t.Fatalf("want 2 normal CFDs, got %d", len(ns))
	}
	for _, n := range ns {
		if len(n.RHS) != 1 {
			t.Errorf("normal form must have single RHS: %s", n)
		}
		if len(n.LHS) != 2 {
			t.Errorf("normalization must preserve LHS: %s", n)
		}
	}
	if ns[0].RHS[0].Attr != "C" || ns[0].RHS[0].Pat.Const != "2" {
		t.Errorf("first normal CFD wrong: %s", ns[0])
	}
	if ns[1].RHS[0].Attr != "D" || !ns[1].RHS[0].Pat.Wildcard {
		t.Errorf("second normal CFD wrong: %s", ns[1])
	}
}

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		`R([CC=44, zip] -> [street])`,
		`R([AC] -> [city=ldn])`,
		`R(zip -> street)`,
		`R(A == B)`,
		`R([A="x,y", B] -> [C])`,
		`R([] -> [A=3])`,
	}
	for _, src := range cases {
		c, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		back, err := Parse(c.String())
		if err != nil {
			// Quoted constants render unquoted; skip round-trip for those.
			if strings.Contains(src, `"`) {
				continue
			}
			t.Fatalf("reparse of %q (%q): %v", src, c.String(), err)
		}
		if back.Key() != c.Key() {
			t.Errorf("round trip changed %q: %q vs %q", src, c.Key(), back.Key())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`R`,
		`R()`,
		`R(A -> )`,
		`(A -> B)`,
		`R(A, A -> B)`,
		`R(A ==)`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// Property: satisfaction is preserved under taking subsets of an instance
// (CFDs are universally quantified over tuple pairs).
func TestSatisfactionAntiMonotoneProperty(t *testing.T) {
	s := rel.InfiniteSchema("R", "A", "B", "C")
	phi := MustParse(`R([A] -> [B])`)
	f := func(rows [][3]uint8, mask uint16) bool {
		if len(rows) > 8 {
			rows = rows[:8]
		}
		full := rel.NewInstance(s)
		sub := rel.NewInstance(s)
		for i, r := range rows {
			t := rel.Tuple{itoa(r[0] % 4), itoa(r[1] % 4), itoa(r[2] % 4)}
			_ = full.Insert(t)
			if mask&(1<<i) != 0 {
				_ = sub.Insert(t)
			}
		}
		okFull, err := Satisfies(full, phi)
		if err != nil {
			return false
		}
		if !okFull {
			return true // nothing to check
		}
		okSub, err := Satisfies(sub, phi)
		if err != nil {
			return false
		}
		return okSub
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func itoa(b uint8) string {
	return string(rune('a' + b))
}

func TestDedupAndKey(t *testing.T) {
	a := MustParse(`R([A, B=1] -> [C])`)
	b := MustParse(`R([B=1, A] -> [C])`) // same up to LHS order
	c := MustParse(`R([A, B=2] -> [C])`)
	if a.Key() != b.Key() {
		t.Error("Key must be order-insensitive on the LHS")
	}
	if a.Key() == c.Key() {
		t.Error("different patterns must have different keys")
	}
	d := Dedup([]*CFD{a, b, c})
	if len(d) != 2 {
		t.Errorf("Dedup: want 2, got %d", len(d))
	}

	// Separators and '_' inside constants do not make distinct CFDs
	// collide: each of these differs from every other.
	item := func(attr string, p Pattern) Item { return Item{Attr: attr, Pat: p} }
	std := func(lhs ...Item) *CFD { return &CFD{Relation: "R", LHS: lhs, RHS: []Item{item("C", Any())}} }
	distinct := []*CFD{
		std(item("A", Eq("x,1:B=y"))),
		std(item("A", Eq("x")), item("B", Eq("y"))),
		std(item("A", Eq("_"))),
		std(item("A", Any())),
		std(item("A", Eq("1|1:C_"))),
		std(item("A", Eq("="))),
		{Relation: "R|1:A_", RHS: []Item{item("C", Any())}},
		{Relation: "R", LHS: []Item{item("A", Any())}, RHS: []Item{item("C", Any())}, Equality: true},
	}
	seen := map[string]*CFD{}
	for _, c := range distinct {
		if prev, dup := seen[c.Key()]; dup {
			t.Errorf("%s and %s share the key %q", prev, c, c.Key())
		}
		seen[c.Key()] = c
	}
}

func TestRename(t *testing.T) {
	c := MustParse(`S([A=1, B] -> [C])`)
	r := c.Rename("V", func(a string) string { return "x_" + a })
	if r.Relation != "V" {
		t.Errorf("relation not renamed: %s", r)
	}
	if r.LHS[0].Attr != "x_A" || r.RHS[0].Attr != "x_C" {
		t.Errorf("attributes not renamed: %s", r)
	}
	// Original untouched.
	if c.LHS[0].Attr != "A" {
		t.Errorf("rename mutated the original: %s", c)
	}
}

func TestValidate(t *testing.T) {
	s := rel.MustSchema("R",
		rel.Attribute{Name: "A", Domain: rel.Bool()},
		rel.Attribute{Name: "B", Domain: rel.Infinite()},
	)
	if err := MustParse(`R([A=1] -> [B])`).Validate(s); err != nil {
		t.Errorf("valid CFD rejected: %v", err)
	}
	if err := MustParse(`R([A=7] -> [B])`).Validate(s); err == nil {
		t.Error("constant outside finite domain must be rejected")
	}
	if err := MustParse(`R([Z] -> [B])`).Validate(s); err == nil {
		t.Error("unknown attribute must be rejected")
	}
	if err := MustParse(`S([A] -> [B])`).Validate(s); err == nil {
		t.Error("wrong relation must be rejected")
	}
}
