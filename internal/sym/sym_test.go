package sym

import (
	"errors"
	"math/rand"
	"testing"

	"cfdprop/internal/rel"
)

func TestEquateVariables(t *testing.T) {
	st := NewState()
	a := st.NewVar(rel.Infinite())
	b := st.NewVar(rel.Infinite())
	if st.SameTerm(a, b) {
		t.Fatal("fresh variables must differ")
	}
	if err := st.Equate(a, b); err != nil {
		t.Fatal(err)
	}
	if !st.SameTerm(a, b) {
		t.Fatal("equated variables must be the same term")
	}
}

func TestBindPropagatesThroughClass(t *testing.T) {
	st := NewState()
	a := st.NewVar(rel.Infinite())
	b := st.NewVar(rel.Infinite())
	if err := st.Equate(a, b); err != nil {
		t.Fatal(err)
	}
	if err := st.Bind(a, "c"); err != nil {
		t.Fatal(err)
	}
	rb := st.Resolve(b)
	if rb.IsVar || rb.Const != "c" {
		t.Fatalf("b should resolve to c, got %v", rb)
	}
}

func TestConstantClash(t *testing.T) {
	st := NewState()
	a := st.NewVar(rel.Infinite())
	if err := st.Bind(a, "x"); err != nil {
		t.Fatal(err)
	}
	if err := st.Bind(a, "y"); !errors.Is(err, ErrConflict) {
		t.Fatalf("binding a second constant must fail with ErrConflict, got %v", err)
	}
	if err := st.Equate(Constant("p"), Constant("q")); !errors.Is(err, ErrConflict) {
		t.Fatalf("equating distinct constants must fail with ErrConflict, got %v", err)
	}
	if err := st.Equate(Constant("p"), Constant("p")); err != nil {
		t.Fatalf("equal constants must be fine: %v", err)
	}
}

func TestDomainEnforcement(t *testing.T) {
	st := NewState()
	a := st.NewVar(rel.Bool())
	if err := st.Bind(a, "7"); err == nil {
		t.Fatal("binding outside the finite domain must fail")
	}
	st2 := NewState()
	b := st2.NewVar(rel.FiniteDomain("d", "1", "2"))
	c := st2.NewVar(rel.FiniteDomain("d", "3", "4"))
	if err := st2.Equate(b, c); err == nil {
		t.Fatal("empty domain intersection must fail")
	}
	st3 := NewState()
	d := st3.NewVar(rel.FiniteDomain("d", "1", "2"))
	e := st3.NewVar(rel.FiniteDomain("d", "2", "3"))
	if err := st3.Equate(d, e); err != nil {
		t.Fatal(err)
	}
	dom := st3.Domain(d)
	if !dom.Finite || dom.Size() != 1 || !dom.Contains("2") {
		t.Fatalf("intersected domain wrong: %v", dom)
	}
}

func TestVersionAdvancesOnChange(t *testing.T) {
	st := NewState()
	a := st.NewVar(rel.Infinite())
	b := st.NewVar(rel.Infinite())
	v0 := st.Version()
	_ = st.Equate(a, a)
	if st.Version() != v0 {
		t.Error("no-op equate must not bump the version")
	}
	_ = st.Equate(a, b)
	if st.Version() == v0 {
		t.Error("merge must bump the version")
	}
	v1 := st.Version()
	_ = st.Equate(a, b)
	if st.Version() != v1 {
		t.Error("repeated equate must be a no-op")
	}
	_ = st.Bind(a, "c")
	if st.Version() == v1 {
		t.Error("bind must bump the version")
	}
	v2 := st.Version()
	_ = st.Bind(b, "c")
	if st.Version() != v2 {
		t.Error("re-binding the same constant must be a no-op")
	}
}

func TestSaveRestore(t *testing.T) {
	st := NewState()
	a := st.NewVar(rel.Infinite())
	b := st.NewVar(rel.Infinite())
	snap := st.Save()
	if err := st.Equate(a, b); err != nil {
		t.Fatal(err)
	}
	if err := st.Bind(a, "x"); err != nil {
		t.Fatal(err)
	}
	_ = st.Bind(b, "y") // conflict
	st.Restore(snap)
	if st.SameTerm(a, b) {
		t.Error("restore must undo the merge")
	}
	if ra := st.Resolve(a); ra.IsVar == false {
		t.Error("restore must undo the binding")
	}
}

func TestUnboundFiniteRoots(t *testing.T) {
	st := NewState()
	a := st.NewVar(rel.Bool())
	b := st.NewVar(rel.Bool())
	_ = st.NewVar(rel.Infinite())
	if n := len(st.UnboundFiniteRoots()); n != 2 {
		t.Fatalf("want 2 finite roots, got %d", n)
	}
	if err := st.Equate(a, b); err != nil {
		t.Fatal(err)
	}
	if n := len(st.UnboundFiniteRoots()); n != 1 {
		t.Fatalf("after merge want 1 finite root, got %d", n)
	}
	if err := st.Bind(a, "0"); err != nil {
		t.Fatal(err)
	}
	if n := len(st.UnboundFiniteRoots()); n != 0 {
		t.Fatalf("after bind want 0 finite roots, got %d", n)
	}
}

func TestInstantiateDistinct(t *testing.T) {
	st := NewState()
	a := st.NewVar(rel.Infinite())
	b := st.NewVar(rel.Infinite())
	c := st.NewVar(rel.Infinite())
	_ = st.Equate(a, b)
	_ = st.Bind(c, "k")
	f := st.InstantiateDistinct()
	va, vb, vc := f(a), f(b), f(c)
	if va != vb {
		t.Error("same class must instantiate identically")
	}
	if vc != "k" {
		t.Error("bound variable must keep its constant")
	}
	d := st.NewVar(rel.Infinite())
	if f(d) == va {
		t.Error("distinct classes must get distinct constants")
	}
}

// Property: a random sequence of equates/binds is order-insensitive in its
// final partition (chase confluence at the union-find level): applying the
// same successful operations in a different order yields the same SameTerm
// relation.
func TestUnionFindConfluenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 6
		type op struct {
			kind int // 0 = equate, 1 = bind
			a, b int
			c    string
		}
		var ops []op
		for i := 0; i < 8; i++ {
			ops = append(ops, op{kind: rng.Intn(2), a: rng.Intn(n), b: rng.Intn(n), c: string(rune('a' + rng.Intn(2)))})
		}
		build := func(perm []int) (*State, []Term, bool) {
			st := NewState()
			vars := make([]Term, n)
			for i := range vars {
				vars[i] = st.NewVar(rel.Infinite())
			}
			for _, i := range perm {
				o := ops[i]
				var err error
				if o.kind == 0 {
					err = st.Equate(vars[o.a], vars[o.b])
				} else {
					err = st.Bind(vars[o.a], o.c)
				}
				if err != nil {
					return nil, nil, false
				}
			}
			return st, vars, true
		}
		idPerm := make([]int, len(ops))
		for i := range idPerm {
			idPerm[i] = i
		}
		st1, v1, ok1 := build(idPerm)
		st2, v2, ok2 := build(rng.Perm(len(ops)))
		if ok1 != ok2 {
			// Both orders must agree on success/failure for this op set.
			t.Fatalf("trial %d: conflicting success: %v vs %v", trial, ok1, ok2)
		}
		if !ok1 {
			continue
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if st1.SameTerm(v1[i], v1[j]) != st2.SameTerm(v2[i], v2[j]) {
					t.Fatalf("trial %d: partitions differ at (%d,%d)", trial, i, j)
				}
			}
		}
	}
}

func TestEventJournal(t *testing.T) {
	st := NewState()
	st.TrackEvents(true)
	a := st.NewVar(rel.Infinite())
	b := st.NewVar(rel.Infinite())
	c := st.NewVar(rel.Infinite())
	if err := st.Equate(a, b); err != nil {
		t.Fatal(err)
	}
	evs := st.Events()
	if len(evs) != 1 || evs[0].Merged < 0 {
		t.Fatalf("want one union event, got %v", evs)
	}
	// Members of both classes must find() to the event's root.
	if ra, rb := st.Resolve(a), st.Resolve(b); ra.Var != evs[0].Root || rb.Var != evs[0].Root {
		t.Fatalf("union event root %d does not cover both members (%s, %s)", evs[0].Root, ra, rb)
	}
	st.ClearEvents()
	rootC := st.Resolve(c).Var
	if err := st.Bind(c, "x"); err != nil {
		t.Fatal(err)
	}
	evs = st.Events()
	if len(evs) != 1 || evs[0].Merged != -1 || evs[0].Root != rootC {
		t.Fatalf("want one bind event on c's root %d, got %v", rootC, evs)
	}
	// Redundant operations must not journal.
	st.ClearEvents()
	if err := st.Equate(a, b); err != nil {
		t.Fatal(err)
	}
	if err := st.Bind(c, "x"); err != nil {
		t.Fatal(err)
	}
	if evs := st.Events(); len(evs) != 0 {
		t.Fatalf("no-op operations journaled %v", evs)
	}
}

func TestResetReuse(t *testing.T) {
	st := NewState()
	st.TrackEvents(true)
	a := st.NewVar(rel.Infinite())
	b := st.NewVar(rel.Infinite())
	if err := st.Equate(a, b); err != nil {
		t.Fatal(err)
	}
	if err := st.Bind(a, "v"); err != nil {
		t.Fatal(err)
	}
	st.Reset()
	if len(st.parent) != 0 || st.Version() != 0 {
		t.Fatal("Reset must empty the state")
	}
	if len(st.Events()) != 0 {
		t.Fatal("Reset must clear the journal")
	}
	// Fresh variables after Reset start unconstrained and unbound.
	c := st.NewVar(rel.Infinite())
	d := st.NewVar(rel.Infinite())
	if st.SameTerm(c, d) {
		t.Fatal("variables after Reset must be fresh")
	}
	if err := st.Equate(c, d); err != nil {
		t.Fatal(err)
	}
	if len(st.Events()) != 1 {
		t.Fatal("event tracking must survive Reset")
	}
}

func TestRestoreClearsJournal(t *testing.T) {
	st := NewState()
	st.TrackEvents(true)
	a := st.NewVar(rel.Infinite())
	b := st.NewVar(rel.Infinite())
	snap := st.Save()
	if err := st.Equate(a, b); err != nil {
		t.Fatal(err)
	}
	st.Restore(snap)
	if len(st.Events()) != 0 {
		t.Fatal("Restore must clear the journal")
	}
	if st.SameTerm(a, b) {
		t.Fatal("Restore must undo the union")
	}
}
