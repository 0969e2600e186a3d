package cfd

import (
	"fmt"
	"strings"

	"cfdprop/internal/rel"
)

// Violation witnesses that an instance does not satisfy a CFD. For standard
// CFDs it names a pair of tuple indexes (possibly equal, when a single
// tuple clashes with a constant RHS pattern) and the offending RHS
// attribute; for equality CFDs T2 == T1.
//
// Line1 and Line2 are the authoritative 1-based source-file lines of the
// two tuples, taken from the instance's provenance (rel.Instance.Line):
// for a CSV loaded with its header these are real file lines (first data
// row = line 2), so reports never need to reconstruct them from tuple
// ordinals — the historical source of off-by-one row numbers. They are 0
// when the instance carries no provenance.
type Violation struct {
	CFD    *CFD
	T1, T2 int    // tuple indexes into the instance
	Line1  int    // 1-based source-file line of tuple T1; 0 when untracked
	Line2  int    // 1-based source-file line of tuple T2; 0 when untracked
	Attr   string // RHS attribute where the conflict shows
	Reason string
}

func (v Violation) String() string {
	if v.Line1 > 0 && v.Line2 > 0 {
		return fmt.Sprintf("violation of %s at lines %d,%d on %s: %s", v.CFD, v.Line1, v.Line2, v.Attr, v.Reason)
	}
	return fmt.Sprintf("violation of %s at tuples %d,%d on %s: %s", v.CFD, v.T1, v.T2, v.Attr, v.Reason)
}

// Satisfies reports whether the instance satisfies the CFD. It is
// equivalent to len(Violations(...)) == 0 but stops at the first violation.
func Satisfies(in *rel.Instance, c *CFD) (bool, error) {
	vs, err := violations(in, c, true)
	if err != nil {
		return false, err
	}
	return len(vs) == 0, nil
}

// Violations returns every violation of the CFD in the instance. For
// standard CFDs, tuples matching tp[X] are grouped by their X-values; one
// violation is reported per conflicting tuple pair per group (against the
// group's first tuple, to keep output linear).
func Violations(in *rel.Instance, c *CFD) ([]Violation, error) {
	return violations(in, c, false)
}

func violations(in *rel.Instance, c *CFD, firstOnly bool) ([]Violation, error) {
	if c.Equality {
		return equalityViolations(in, c, firstOnly)
	}
	lhsIdx := make([]int, len(c.LHS))
	for i, it := range c.LHS {
		j, ok := in.Schema.Index(it.Attr)
		if !ok {
			return nil, fmt.Errorf("cfd: %s: instance schema %s lacks attribute %q", c, in.Schema.Name, it.Attr)
		}
		lhsIdx[i] = j
	}
	rhsIdx := make([]int, len(c.RHS))
	for i, it := range c.RHS {
		j, ok := in.Schema.Index(it.Attr)
		if !ok {
			return nil, fmt.Errorf("cfd: %s: instance schema %s lacks attribute %q", c, in.Schema.Name, it.Attr)
		}
		rhsIdx[i] = j
	}

	var out []Violation
	// groups maps the X-projection of matching tuples to the first tuple
	// index seen with that projection.
	groups := make(map[string]int)
	for ti, t := range in.Tuples {
		match := true
		for i, it := range c.LHS {
			if !it.Pat.Matches(t[lhsIdx[i]]) {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		// Single-tuple check: t paired with itself must satisfy t[Y] ≍ tp[Y].
		for i, it := range c.RHS {
			if !it.Pat.Matches(t[rhsIdx[i]]) {
				out = append(out, Violation{
					CFD: c, T1: ti, T2: ti, Line1: in.Line(ti), Line2: in.Line(ti), Attr: it.Attr,
					Reason: fmt.Sprintf("value %q does not match pattern %s", t[rhsIdx[i]], it.Pat),
				})
				if firstOnly {
					return out, nil
				}
			}
		}
		key := projectKey(t, lhsIdx)
		first, seen := groups[key]
		if !seen {
			groups[key] = ti
			continue
		}
		ft := in.Tuples[first]
		for i, it := range c.RHS {
			if ft[rhsIdx[i]] != t[rhsIdx[i]] {
				out = append(out, Violation{
					CFD: c, T1: first, T2: ti, Line1: in.Line(first), Line2: in.Line(ti), Attr: it.Attr,
					Reason: fmt.Sprintf("agree on LHS but %q != %q on %s", ft[rhsIdx[i]], t[rhsIdx[i]], it.Attr),
				})
				if firstOnly {
					return out, nil
				}
			}
		}
	}
	return out, nil
}

func equalityViolations(in *rel.Instance, c *CFD, firstOnly bool) ([]Violation, error) {
	a, b := c.LHS[0].Attr, c.RHS[0].Attr
	ia, ok := in.Schema.Index(a)
	if !ok {
		return nil, fmt.Errorf("cfd: %s: instance schema %s lacks attribute %q", c, in.Schema.Name, a)
	}
	ib, ok := in.Schema.Index(b)
	if !ok {
		return nil, fmt.Errorf("cfd: %s: instance schema %s lacks attribute %q", c, in.Schema.Name, b)
	}
	var out []Violation
	for ti, t := range in.Tuples {
		if t[ia] != t[ib] {
			out = append(out, Violation{
				CFD: c, T1: ti, T2: ti, Line1: in.Line(ti), Line2: in.Line(ti), Attr: b,
				Reason: fmt.Sprintf("%s=%q differs from %s=%q", a, t[ia], b, t[ib]),
			})
			if firstOnly {
				return out, nil
			}
		}
	}
	return out, nil
}

func projectKey(t rel.Tuple, idx []int) string {
	var b strings.Builder
	for _, i := range idx {
		fmt.Fprintf(&b, "%d:%s;", len(t[i]), t[i])
	}
	return b.String()
}

// DatabaseSatisfies reports whether every relation instance of the database
// satisfies the CFDs defined on it.
func DatabaseSatisfies(db *rel.Database, cs []*CFD) (bool, *Violation, error) {
	for _, c := range cs {
		in := db.Instance(c.Relation)
		if in == nil {
			return false, nil, fmt.Errorf("cfd: %s: database has no relation %q", c, c.Relation)
		}
		vs, err := violations(in, c, true)
		if err != nil {
			return false, nil, err
		}
		if len(vs) > 0 {
			v := vs[0]
			return false, &v, nil
		}
	}
	return true, nil, nil
}
