package stream

import (
	"io"
	"os"
	"strings"
	"testing"

	"cfdprop/internal/cfd"
)

// FuzzStreamCSV throws arbitrary CSV content at the streaming detector and
// compares it against the in-memory oracle: both must agree on error-ness,
// and when both succeed the streaming report must reproduce the oracle's
// violations — counts, ordinals, authoritative lines, reasons — exactly.
// Each input is checked twice: once in a single pass under the default
// group budget, and once with a group budget of 2, so that any rule with
// more than two groups is re-read in hash partitions.
// Seeds come from the cfdcheck fixture plus malformed and quoted inputs.
func FuzzStreamCSV(f *testing.F) {
	if seed, err := os.ReadFile("../../cmd/cfdcheck/testdata/customers.csv"); err == nil {
		f.Add(string(seed))
	}
	for _, s := range []string{
		"a,b\n1,2\n",
		"a,b\n1\n",
		"\"unterminated\na,b\n",
		"a,a\n1,2\n",
		",\n,\n",
		"a;b\n1;2\n",
		"a,b\n1,x\n\"q\nq\",y\n1,z\n",
		"A,B,C,D\nv,v,v,v\nv,v,w,v\n",
	} {
		f.Add(s)
	}
	rules := []*cfd.CFD{
		cfd.MustParse("R([a] -> [b])"),
		cfd.MustParse("R([A, B] -> [C])"),
		cfd.MustParse("R([zip] -> [street])"),
		cfd.MustParse("R([CC=44, AC=20] -> [city=LDN])"),
		cfd.MustParse("R(a == b)"),
	}
	f.Fuzz(func(t *testing.T, data string) {
		in, oerr := LoadInstance(strings.NewReader(data), "fuzz", "R")
		single, serr := checkString(data, "fuzz", rules, Options{Parallel: 2, ChunkSize: 3})
		open := func() (io.ReadCloser, error) { return io.NopCloser(strings.NewReader(data)), nil }
		parts, perr := Check(open, "fuzz", rules, Options{Parallel: 2, ChunkSize: 3, MaxGroups: 2})
		for _, run := range []struct {
			name string
			rep  *Report
			err  error
		}{{"single pass", single, serr}, {"partitioned", parts, perr}} {
			if (oerr == nil) != (run.err == nil) {
				t.Fatalf("%s: oracle err = %v, stream err = %v on %q", run.name, oerr, run.err, data)
			}
			if oerr != nil {
				continue
			}
			if run.rep.Rows != in.Len() {
				t.Fatalf("%s: stream saw %d rows, oracle %d, on %q", run.name, run.rep.Rows, in.Len(), data)
			}
			for ri, c := range rules {
				want, werr := cfd.Violations(in, c)
				got := run.rep.Rules[ri]
				if (werr == nil) != (got.Err == nil) {
					t.Fatalf("%s: rule %s: oracle err = %v, stream err = %v on %q", run.name, c, werr, got.Err, data)
				}
				if werr != nil {
					continue
				}
				if got.Count != len(want) || len(got.Violations) != len(want) {
					t.Fatalf("%s: rule %s: stream %d/%d violations, oracle %d, on %q", run.name, c, got.Count, len(got.Violations), len(want), data)
				}
				for k := range want {
					g, w := got.Violations[k], want[k]
					if g.T1 != w.T1 || g.T2 != w.T2 || g.Line1 != w.Line1 || g.Line2 != w.Line2 ||
						g.Attr != w.Attr || g.Reason != w.Reason {
						t.Fatalf("%s: rule %s violation %d: got %+v want %+v on %q", run.name, c, k, g, w, data)
					}
				}
			}
		}
	})
}
