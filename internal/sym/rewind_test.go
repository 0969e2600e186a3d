package sym

import (
	"fmt"
	"math/rand"
	"testing"

	"cfdprop/internal/rel"
)

// observe captures everything a chase consumer can see of the state: the
// resolution of every variable, its class domain, and the version counter.
func observe(st *State) string {
	out := fmt.Sprintf("v=%d n=%d;", st.Version(), len(st.parent))
	for i := range st.parent {
		tm := st.Resolve(Variable(i))
		out += fmt.Sprintf("%d:%s dom=%s;", i, tm, st.Domain(Variable(i)))
	}
	return out
}

// randomOps applies n random Binds/Equates and reports whether any failed
// (conflicts are part of the exercise: Rewind must recover from them).
func randomOps(rng *rand.Rand, st *State, n int) (conflict bool) {
	vals := []string{"1", "2", "3"}
	for k := 0; k < n; k++ {
		i := rng.Intn(len(st.parent))
		if rng.Intn(3) == 0 {
			conflict = st.Bind(Variable(i), vals[rng.Intn(len(vals))]) != nil || conflict
			continue
		}
		j := rng.Intn(len(st.parent))
		conflict = st.Equate(Variable(i), Variable(j)) != nil || conflict
	}
	return conflict
}

// TestRewindMatchesSnapshot drives random Bind/Equate sequences with undo
// tracking on and checks that Rewind restores exactly the observable state
// a full Snapshot restore would, including past failed operations.
func TestRewindMatchesSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		st := NewState()
		st.TrackEvents(true)
		for i := 0; i < 4+rng.Intn(8); i++ {
			if rng.Intn(3) == 0 {
				st.NewVar(rel.FiniteDomain("d", "1", "2"))
			} else {
				st.NewVar(rel.Infinite())
			}
		}
		// A warm-up phase (undo off) plays the role of the shared prefix:
		// compressed paths and merged classes from here must survive rewinds.
		if randomOps(rng, st, rng.Intn(6)) {
			continue
		}
		st.ClearEvents()

		st.BeginUndo()
		mark := st.MarkNow()
		want := observe(st)
		wantEvents := len(st.Events())

		randomOps(rng, st, 1+rng.Intn(10))
		// Nested mark: rewind the inner span first, then the outer one.
		inner := st.MarkNow()
		wantInner := observe(st)
		randomOps(rng, st, rng.Intn(6))

		st.Rewind(inner)
		if got := observe(st); got != wantInner {
			t.Fatalf("trial %d: inner rewind diverged\n got %s\nwant %s", trial, got, wantInner)
		}
		st.Rewind(mark)
		if got := observe(st); got != want {
			t.Fatalf("trial %d: outer rewind diverged\n got %s\nwant %s", trial, got, want)
		}
		if len(st.Events()) != wantEvents {
			t.Fatalf("trial %d: Rewind left %d journal entries, want %d", trial, len(st.Events()), wantEvents)
		}
		st.EndUndo()
	}
}

// TestRewindDropsNewVars: variables allocated after a mark disappear on
// Rewind, and re-allocating reuses their ids with fresh, unconstrained
// classes.
func TestRewindDropsNewVars(t *testing.T) {
	st := NewState()
	a := st.NewVar(rel.Infinite())
	st.BeginUndo()
	m := st.MarkNow()
	b := st.NewVar(rel.FiniteDomain("d", "1"))
	if err := st.Equate(a, b); err != nil {
		t.Fatal(err)
	}
	st.Rewind(m)
	if len(st.parent) != 1 {
		t.Fatalf("%d variables after rewind, want 1", len(st.parent))
	}
	c := st.NewVar(rel.Infinite())
	if st.SameTerm(a, c) {
		t.Fatal("reallocated variable must be fresh")
	}
	if d := st.Domain(c); d.Finite {
		t.Fatalf("reallocated variable inherited domain %s", d)
	}
}

// TestRewindAfterFailedBind: a conflict inside the marked span rewinds to
// a fully usable state.
func TestRewindAfterFailedBind(t *testing.T) {
	st := NewState()
	a := st.NewVar(rel.Infinite())
	b := st.NewVar(rel.Infinite())
	st.BeginUndo()
	m := st.MarkNow()
	if err := st.Bind(a, "x"); err != nil {
		t.Fatal(err)
	}
	if err := st.Bind(a, "y"); err == nil {
		t.Fatal("conflicting bind must fail")
	}
	st.Rewind(m)
	if rt := st.Resolve(a); !rt.IsVar {
		t.Fatalf("a resolved to %s after rewind, want unbound", rt)
	}
	if err := st.Equate(a, b); err != nil {
		t.Fatalf("state unusable after rewind: %v", err)
	}
}
