package chase

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"cfdprop/internal/cfd"
	"cfdprop/internal/rel"
	"cfdprop/internal/sym"
)

// fingerprint canonicalizes the chase outcome: every row column rendered
// with class representatives numbered in first-encounter order, so two
// states with the same partition (but different union-find roots) compare
// equal — the same convention Concrete uses for counterexamples.
func fingerprint(ci *Inst, relations []string) string {
	canon := make(map[int]int)
	var b strings.Builder
	for _, name := range relations {
		for _, r := range ci.Rows(name) {
			for _, c := range r.Cols {
				rt := ci.St.Resolve(c)
				if !rt.IsVar {
					fmt.Fprintf(&b, "c%q,", rt.Const)
					continue
				}
				id, ok := canon[rt.Var]
				if !ok {
					id = len(canon)
					canon[rt.Var] = id
				}
				fmt.Fprintf(&b, "v%d,", id)
			}
			b.WriteByte('|')
		}
	}
	return b.String()
}

// buildRandom constructs one random symbolic instance plus a Σ of random
// CFDs. Calling it twice with the same seed yields identical copies.
func buildRandom(seed int64) (*Inst, *sym.State, []*cfd.CFD, []int) {
	rng := rand.New(rand.NewSource(seed))
	st := sym.NewState()
	ci := NewInst(st)
	attrs := []string{"A", "B", "C", "D"}
	if err := ci.DeclareRelation("R", attrs); err != nil {
		panic(err)
	}
	vals := []string{"a", "b"}
	fin := rel.FiniteDomain("d", "a", "b", "c")
	nRows := 2 + rng.Intn(3)
	var pool []sym.Term
	for i := 0; i < nRows; i++ {
		cols := make([]sym.Term, len(attrs))
		for j := range cols {
			switch {
			case len(pool) > 0 && rng.Intn(4) == 0:
				cols[j] = pool[rng.Intn(len(pool))] // shared cell
				continue
			case rng.Intn(4) == 0:
				cols[j] = st.NewVar(fin)
			default:
				cols[j] = st.NewVar(rel.Infinite())
			}
			if rng.Intn(5) == 0 {
				_ = st.Bind(cols[j], vals[rng.Intn(len(vals))])
			}
			pool = append(pool, cols[j])
		}
		if _, err := ci.AddRow("R", cols); err != nil {
			panic(err)
		}
	}
	var sigma []*cfd.CFD
	for k := 0; k < 3+rng.Intn(6); k++ {
		perm := rng.Perm(len(attrs))
		nl := 1 + rng.Intn(2)
		var lhs, rhs []string
		for _, p := range perm[:nl] {
			a := attrs[p]
			if rng.Intn(3) == 0 {
				a = fmt.Sprintf("%s=%s", a, vals[rng.Intn(len(vals))])
			}
			lhs = append(lhs, a)
		}
		a := attrs[perm[nl]]
		if rng.Intn(3) == 0 {
			a = fmt.Sprintf("%s=%s", a, vals[rng.Intn(len(vals))])
		}
		rhs = append(rhs, a)
		sigma = append(sigma, cfd.MustParse(fmt.Sprintf("R(%s -> %s)",
			strings.Join(lhs, ","), strings.Join(rhs, ","))))
	}
	roots := st.UnboundFiniteRoots()
	sort.Ints(roots)
	return ci, st, sigma, roots
}

// TestResumableMatchesFullRechase is the package-level differential: per
// finite-domain assignment, prefix+Extend+Rewind must agree with a from-
// scratch chase on both definedness and the final partition.
func TestResumableMatchesFullRechase(t *testing.T) {
	rels := []string{"R"}
	trials := 0
	for seed := int64(0); seed < 400; seed++ {
		ciO, stO, sigma, roots := buildRandom(seed)
		if len(roots) == 0 || len(roots) > 4 {
			continue
		}
		trials++
		dom := stO.Domain(sym.Variable(roots[0])).Values
		total := 1
		for range roots {
			total *= len(dom)
		}

		// Oracle: full re-chase per assignment from a snapshot.
		type outcome struct {
			undef bool
			fp    string
		}
		oracle := make([]outcome, total)
		base := stO.Save()
		for idx := 0; idx < total; idx++ {
			stO.Restore(base)
			x := idx
			for _, r := range roots {
				if err := stO.Bind(sym.Variable(r), dom[x%len(dom)]); err != nil {
					t.Fatalf("seed %d: pre-chase bind failed: %v", seed, err)
				}
				x /= len(dom)
			}
			err := ciO.Run(sigma)
			var undef ErrUndefined
			switch {
			case err == nil:
				oracle[idx] = outcome{fp: fingerprint(ciO, rels)}
			case errors.As(err, &undef):
				oracle[idx] = outcome{undef: true}
			default:
				t.Fatalf("seed %d: oracle chase: %v", seed, err)
			}
		}

		// Factorised: one prefix, bind + Extend + Rewind per assignment.
		ciF, stF, sigmaF, rootsF := buildRandom(seed)
		rs, err := ciF.RunPrefix(sigmaF)
		var undef ErrUndefined
		if errors.As(err, &undef) {
			// Prefix undefined ⇒ every assignment's chase is undefined.
			for idx, o := range oracle {
				if !o.undef {
					t.Fatalf("seed %d idx %d: prefix undefined but oracle defined", seed, idx)
				}
			}
			continue
		}
		if err != nil {
			t.Fatalf("seed %d: RunPrefix: %v", seed, err)
		}
		m0 := rs.Mark()
		for idx := 0; idx < total; idx++ {
			got := outcome{}
			x := idx
			bindErr := error(nil)
			for _, r := range rootsF {
				if bindErr = stF.Bind(sym.Variable(r), dom[x%len(dom)]); bindErr != nil {
					break
				}
				x /= len(dom)
			}
			if bindErr == nil {
				bindErr = rs.Extend()
			}
			switch {
			case bindErr == nil:
				got.fp = fingerprint(ciF, rels)
			case errors.Is(bindErr, sym.ErrConflict):
				got.undef = true
			default:
				t.Fatalf("seed %d idx %d: Extend: %v", seed, idx, bindErr)
			}
			if got != oracle[idx] {
				t.Fatalf("seed %d idx %d: factorised %+v != oracle %+v", seed, idx, got, oracle[idx])
			}
			rs.Rewind(m0)
		}
		rs.Release()
	}
	if trials < 50 {
		t.Fatalf("only %d usable trials; generator drifted", trials)
	}
}

// TestResumableNestedMarks exercises odometer-style nested rewinds: digit
// 0 varies innermost under a mark taken after binding digit 1.
func TestResumableNestedMarks(t *testing.T) {
	rels := []string{"R"}
	for seed := int64(0); seed < 200; seed++ {
		ci, st, sigma, roots := buildRandom(seed)
		if len(roots) != 2 {
			continue
		}
		dom := st.Domain(sym.Variable(roots[0])).Values

		// Flat reference using the resumable machinery itself (validated
		// against the full re-chase by TestResumableMatchesFullRechase).
		want := make(map[int]string)
		rs, err := ci.RunPrefix(sigma)
		if err != nil {
			continue
		}
		m0 := rs.Mark()
		for idx := 0; idx < len(dom)*len(dom); idx++ {
			if st.Bind(sym.Variable(roots[0]), dom[idx%len(dom)]) == nil &&
				st.Bind(sym.Variable(roots[1]), dom[idx/len(dom)]) == nil &&
				rs.Extend() == nil {
				want[idx] = fingerprint(ci, rels)
			}
			rs.Rewind(m0)
		}

		// Nested: bind digit 1, mark, vary digit 0 under it.
		for hi := 0; hi < len(dom); hi++ {
			if st.Bind(sym.Variable(roots[1]), dom[hi]) != nil || rs.Extend() != nil {
				rs.Rewind(m0)
				continue
			}
			m1 := rs.Mark()
			for lo := 0; lo < len(dom); lo++ {
				idx := hi*len(dom) + lo
				ok := st.Bind(sym.Variable(roots[0]), dom[lo]) == nil && rs.Extend() == nil
				fp, defined := want[idx]
				if ok != defined {
					t.Fatalf("seed %d idx %d: nested definedness %v, flat %v", seed, idx, ok, defined)
				}
				if ok && fingerprint(ci, rels) != fp {
					t.Fatalf("seed %d idx %d: nested partition differs from flat", seed, idx)
				}
				rs.Rewind(m1)
			}
			rs.Rewind(m0)
		}
		rs.Release()
	}
}
