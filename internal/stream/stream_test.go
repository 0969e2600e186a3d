package stream

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cfdprop/internal/cfd"
	"cfdprop/internal/rel"
)

// oracle runs the in-memory reference detector over the same CSV bytes.
func oracle(t *testing.T, data string, rules []*cfd.CFD) (*rel.Instance, []RuleReport) {
	t.Helper()
	in, err := LoadInstance(strings.NewReader(data), "oracle", "R")
	if err != nil {
		t.Fatalf("oracle load: %v", err)
	}
	out := make([]RuleReport, len(rules))
	for i, c := range rules {
		out[i].CFD = c
		vs, err := cfd.Violations(in, c)
		out[i].Err = err
		out[i].Violations = vs
		out[i].Count = len(vs)
	}
	return in, out
}

// assertEqualReports compares a streaming report against the oracle's,
// field by field.
func assertEqualReports(t *testing.T, label string, got *Report, oracleRows int, want []RuleReport) {
	t.Helper()
	if got.Rows != oracleRows {
		t.Errorf("%s: rows = %d, oracle has %d", label, got.Rows, oracleRows)
	}
	if len(got.Rules) != len(want) {
		t.Fatalf("%s: %d rule reports, want %d", label, len(got.Rules), len(want))
	}
	for i := range want {
		g, w := &got.Rules[i], &want[i]
		if (g.Err == nil) != (w.Err == nil) {
			t.Errorf("%s rule %d (%s): err = %v, oracle err = %v", label, i, w.CFD, g.Err, w.Err)
			continue
		}
		if g.Err != nil {
			if g.Err.Error() != w.Err.Error() {
				t.Errorf("%s rule %d: err text %q, oracle %q", label, i, g.Err, w.Err)
			}
			continue
		}
		if g.Count != w.Count {
			t.Errorf("%s rule %d (%s): count = %d, oracle %d", label, i, w.CFD, g.Count, w.Count)
		}
		if len(g.Violations) != len(w.Violations) {
			t.Errorf("%s rule %d (%s): %d violations, oracle %d", label, i, w.CFD, len(g.Violations), len(w.Violations))
			continue
		}
		for k := range w.Violations {
			gv, wv := g.Violations[k], w.Violations[k]
			if gv.CFD != wv.CFD || gv.T1 != wv.T1 || gv.T2 != wv.T2 ||
				gv.Line1 != wv.Line1 || gv.Line2 != wv.Line2 ||
				gv.Attr != wv.Attr || gv.Reason != wv.Reason {
				t.Errorf("%s rule %d violation %d:\n  got  %+v\n  want %+v", label, i, k, gv, wv)
			}
		}
	}
}

func mustRules(t *testing.T, texts ...string) []*cfd.CFD {
	t.Helper()
	out := make([]*cfd.CFD, len(texts))
	for i, s := range texts {
		c, err := cfd.Parse(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		out[i] = c
	}
	return out
}

const fig1CSV = `CC,AC,phn,name,street,city,zip
44,20,1111111,Mike,Regent St.,LDN,W1B 5RA
44,20,2222222,Rick,Oxford St.,LDN,W1D 1AR
44,131,3333333,Joe,High St.,EDI,EH4 1DT
01,908,4444444,Jim,Tree Ave.,MH,07974
01,908,5555555,Ben,Elm Str.,MH,07974
01,131,6666666,Ian,5th Ave,NYC,01202
`

func TestStreamMatchesOracleFig1(t *testing.T) {
	rules := mustRules(t,
		"R([CC=44, AC=20] -> [city=LDN])",
		"R([CC, AC] -> [city])",
		"R([zip] -> [street])",
		"R([AC] -> [city])",
		"R(CC == AC)",
		"R([nope] -> [city])", // schema error: evaluated, reported, never hides others
	)
	_, want := oracle(t, fig1CSV, rules)
	for _, par := range []int{1, 2, 5} {
		rep, err := CheckReader(strings.NewReader(fig1CSV), "fig1", rules, Options{Parallel: par})
		if err != nil {
			t.Fatalf("parallel=%d: %v", par, err)
		}
		assertEqualReports(t, fmt.Sprintf("parallel=%d", par), rep, 6, want)
	}
}

// TestStreamLineNumbers pins the authoritative line-number contract: the
// header is line 1, the first data row line 2, and a quoted multi-line
// field shifts every later row by the newlines it swallows.
func TestStreamLineNumbers(t *testing.T) {
	data := "a,b\n" + // line 1: header
		"1,x\n" + // line 2
		"\"multi\nline\",y\n" + // lines 3-4: one row
		"1,z\n" // line 5: conflicts with line 2 on a -> b
	rules := mustRules(t, "R([a] -> [b])")
	rep, err := CheckReader(strings.NewReader(data), "lines", rules, Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	vs := rep.Rules[0].Violations
	if len(vs) != 1 {
		t.Fatalf("want 1 violation, got %d", len(vs))
	}
	if vs[0].Line1 != 2 || vs[0].Line2 != 5 {
		t.Errorf("violation lines = %d,%d; want 2,5", vs[0].Line1, vs[0].Line2)
	}
	if vs[0].T1 != 0 || vs[0].T2 != 2 {
		t.Errorf("violation ordinals = %d,%d; want 0,2", vs[0].T1, vs[0].T2)
	}
	// The oracle agrees tuple-for-tuple.
	rows, want := oracle(t, data, rules)
	assertEqualReports(t, "quoted-newlines", rep, rows.Len(), want)
}

// randomCSV builds a CSV over 4 attributes with values drawn from a small
// alphabet (so groups and conflicts are dense), sometimes containing
// quoting-hostile characters.
func randomCSV(rng *rand.Rand, rows int) string {
	vals := []string{"a", "b", "c", "", "x,y", "q\"q", "nl\nnl", " sp"}
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	w.Write([]string{"A", "B", "C", "D"})
	rec := make([]string, 4)
	for i := 0; i < rows; i++ {
		for j := range rec {
			rec[j] = vals[rng.Intn(len(vals))]
		}
		w.Write(rec)
	}
	w.Flush()
	return sb.String()
}

// randomRules builds standard CFDs with random pattern tuples, plus an
// equality CFD and (sometimes) a schema-error rule.
func randomRules(rng *rand.Rand) []*cfd.CFD {
	attrs := []string{"A", "B", "C", "D"}
	vals := []string{"a", "b", "c", ""}
	var out []*cfd.CFD
	n := 2 + rng.Intn(4)
	for i := 0; i < n; i++ {
		perm := rng.Perm(4)
		nl := 1 + rng.Intn(2)
		var lhs, rhs []cfd.Item
		for _, k := range perm[:nl] {
			it := cfd.Item{Attr: attrs[k], Pat: cfd.Any()}
			if rng.Intn(2) == 0 {
				it.Pat = cfd.Eq(vals[rng.Intn(len(vals))])
			}
			lhs = append(lhs, it)
		}
		rit := cfd.Item{Attr: attrs[perm[nl]], Pat: cfd.Any()}
		if rng.Intn(3) == 0 {
			rit.Pat = cfd.Eq(vals[rng.Intn(len(vals))])
		}
		rhs = append(rhs, rit)
		out = append(out, cfd.Must("R", lhs, rhs))
	}
	out = append(out, cfd.NewEquality("R", attrs[rng.Intn(4)], attrs[rng.Intn(4)]))
	if rng.Intn(3) == 0 {
		out = append(out, cfd.NewFD("R", []string{"A"}, "missing"))
	}
	return out
}

// TestStreamDifferential is the randomized differential suite: streaming
// reports must equal the in-memory oracle's on every instance, at several
// worker counts and chunk sizes, and at group budgets of 1 and 3 that
// split most rules into hash partitions re-read in later passes.
func TestStreamDifferential(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(7919*trial + 13)))
		data := randomCSV(rng, 20+rng.Intn(300))
		rules := randomRules(rng)
		in, want := oracle(t, data, rules)
		open := func() (io.ReadCloser, error) { return io.NopCloser(strings.NewReader(data)), nil }
		for _, opt := range []Options{
			{Parallel: 1, ChunkSize: 7},
			{Parallel: 3, ChunkSize: 16},
			{Parallel: 8, ChunkSize: 1},
			{Parallel: 2, ChunkSize: 5, MaxGroups: 3},
			{Parallel: 4, ChunkSize: 9, MaxGroups: 1},
		} {
			label := fmt.Sprintf("trial %d parallel=%d chunk=%d max-groups=%d", trial, opt.Parallel, opt.ChunkSize, opt.MaxGroups)
			rep, err := Check(open, "diff", rules, opt)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertEqualReports(t, label, rep, in.Len(), want)
		}
	}
}

// multipassFixture is a 500-row file whose A column is nearly a key (about
// 10% of keys repeat, so conflicts exist) and whose C column is a key.
func multipassFixture(t *testing.T) (string, []*cfd.CFD) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	var sb strings.Builder
	sb.WriteString("A,B,C,D\n")
	for i := 0; i < 500; i++ {
		k := i
		if rng.Intn(10) == 0 {
			k = rng.Intn(i + 1)
		}
		fmt.Fprintf(&sb, "k%d,%d,c%d,d\n", k, rng.Intn(3), i)
	}
	return sb.String(), mustRules(t, "R([A] -> [B])", "R([C] -> [D])", "R([A=k1] -> [B])")
}

// TestStreamMultipass forces hash-partitioned re-reads with a tiny
// MaxGroups and checks the result still equals the oracle.
func TestStreamMultipass(t *testing.T) {
	data, rules := multipassFixture(t)
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	in, want := oracle(t, data, rules)

	for _, par := range []int{1, 4} {
		rep, err := CheckFile(path, rules, Options{Parallel: par, ChunkSize: 32, MaxGroups: 50})
		if err != nil {
			t.Fatalf("parallel=%d: %v", par, err)
		}
		assertEqualReports(t, fmt.Sprintf("multipass parallel=%d", par), rep, in.Len(), want)
		if rep.Rules[0].Passes < 2 {
			t.Errorf("parallel=%d: rule 0 took %d passes, expected hash-partitioned re-reads", par, rep.Rules[0].Passes)
		}
		if rep.Rules[2].Passes != 1 {
			t.Errorf("parallel=%d: low-cardinality rule 2 took %d passes, want 1", par, rep.Rules[2].Passes)
		}
	}

	// A one-shot reader cannot re-scan: the overflow must surface as
	// ErrMultipass, not a wrong answer.
	if _, err := CheckReader(strings.NewReader(data), "oneshot", rules, Options{Parallel: 1, MaxGroups: 50}); err == nil {
		t.Error("CheckReader with overflowing MaxGroups must fail")
	}
}

// countingReader counts the bytes a pass reads.
type countingReader struct {
	r io.Reader
	n *int64
}

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	*c.n += int64(n)
	return n, err
}

// TestStreamPassesPinned pins each rule's Passes, Groups and Count on the
// multipass fixture at every worker count, and that the rules which
// overflow share their re-reads: the input is opened once per pass of the
// rule with the most passes, not once per partition of every rule.
func TestStreamPassesPinned(t *testing.T) {
	data, rules := multipassFixture(t)
	wantPasses, wantGroups, wantCount := []int{31, 31, 1}, []int{464, 500, 1}, []int{23, 0, 0}
	for _, par := range []int{1, 2, 4, 8} {
		opens := 0
		open := func() (io.ReadCloser, error) {
			opens++
			return io.NopCloser(strings.NewReader(data)), nil
		}
		rep, err := Check(open, "pinned", rules, Options{Parallel: par, ChunkSize: 32, MaxGroups: 50})
		if err != nil {
			t.Fatalf("parallel=%d: %v", par, err)
		}
		for ri, rr := range rep.Rules {
			if rr.Passes != wantPasses[ri] || rr.Groups != wantGroups[ri] || rr.Count != wantCount[ri] {
				t.Errorf("parallel=%d rule %d: passes/groups/count = %d/%d/%d, want %d/%d/%d",
					par, ri, rr.Passes, rr.Groups, rr.Count, wantPasses[ri], wantGroups[ri], wantCount[ri])
			}
		}
		if opens != 31 {
			t.Errorf("parallel=%d: input opened %d times, want 31 (one per pass of the longest rule)", par, opens)
		}
	}
}

// TestStreamPassStopsEarly: a later pass stops reading once every rule in
// it has overflowed, as an abandoned partition scan did. On 8,000 rows
// with all-distinct keys and MaxGroups 1,000 the check makes 19 passes;
// reading every one to EOF would read 19 file-lengths.
func TestStreamPassStopsEarly(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("A,B\n")
	for i := 0; i < 8000; i++ {
		fmt.Fprintf(&sb, "k%d,%d\n", i, i%7)
	}
	data := sb.String()
	rules := mustRules(t, "R([A] -> [B])")
	for _, par := range []int{1, 2, 4} {
		var read int64
		open := func() (io.ReadCloser, error) {
			return io.NopCloser(countingReader{strings.NewReader(data), &read}), nil
		}
		rep, err := Check(open, "early", rules, Options{Parallel: par, ChunkSize: 64, MaxGroups: 1000})
		if err != nil {
			t.Fatalf("parallel=%d: %v", par, err)
		}
		if rep.Rules[0].Passes != 19 || rep.Rules[0].Groups != 8000 {
			t.Fatalf("parallel=%d: passes/groups = %d/%d, want 19/8000", par, rep.Rules[0].Passes, rep.Rules[0].Groups)
		}
		if lengths := float64(read) / float64(len(data)); lengths >= 18 {
			t.Errorf("parallel=%d: read %.2f file-lengths over 19 passes, want < 18", par, lengths)
		} else {
			t.Logf("parallel=%d: read %.2f file-lengths over 19 passes", par, lengths)
		}
	}
}

// TestStreamNoRules: with no rules the first pass still runs: it counts
// the rows and rejects malformed CSV.
func TestStreamNoRules(t *testing.T) {
	rep, err := CheckReader(strings.NewReader(fig1CSV), "norules", nil, Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows != 6 || len(rep.Rules) != 0 {
		t.Errorf("rows/rules = %d/%d, want 6/0", rep.Rows, len(rep.Rules))
	}
	for _, bad := range []string{"a,b\n1,2\n1,2,3\n", "a,b\n1,2\n\"oops,2\n"} {
		if _, err := CheckReader(strings.NewReader(bad), "norules", nil, Options{Parallel: 2}); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestStreamMaxViolations: the retention cap keeps the exact count and the
// oracle-prefix of the violations.
func TestStreamMaxViolations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := randomCSV(rng, 200)
	rules := mustRules(t, "R([A] -> [B])", "R(A == B)")
	in, want := oracle(t, data, rules)
	rep, err := CheckReader(strings.NewReader(data), "cap", rules, Options{Parallel: 3, ChunkSize: 11, MaxViolations: 5})
	if err != nil {
		t.Fatal(err)
	}
	_ = in
	for i := range rules {
		g, w := rep.Rules[i], want[i]
		if g.Count != w.Count {
			t.Errorf("rule %d: count %d, oracle %d", i, g.Count, w.Count)
		}
		wantLen := len(w.Violations)
		if wantLen > 5 {
			wantLen = 5
		}
		if len(g.Violations) != wantLen {
			t.Fatalf("rule %d: retained %d, want %d", i, len(g.Violations), wantLen)
		}
		for k := range g.Violations {
			if g.Violations[k].Reason != w.Violations[k].Reason || g.Violations[k].T2 != w.Violations[k].T2 {
				t.Errorf("rule %d violation %d diverges from oracle prefix", i, k)
			}
		}
	}
}

// TestStreamCancellation: an expired context aborts the scan with the
// context's error (cfdcheck maps it to exit status 3).
func TestStreamCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rules := mustRules(t, "R([a] -> [b])")
	_, err := CheckReader(strings.NewReader("a,b\n1,2\n"), "cancel", rules, Options{Context: ctx, Parallel: 2})
	if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("cancelled check = %v, want context.Canceled", err)
	}
}

// TestStreamMalformedInputs mirrors the cfdcheck loader-robustness suite:
// every malformed input errors cleanly, never panics, and agrees with the
// oracle loader on error-ness.
func TestStreamMalformedInputs(t *testing.T) {
	cases := []struct{ name, data string }{
		{"empty file", ""},
		{"ragged row", "a,b\n1,2,3\n"},
		{"unterminated quote", "a,b\n\"oops,2\n"},
		{"duplicate header", "a,a\n1,2\n"},
		{"empty header cell", "a,\n1,2\n"},
		{"header only", "a,b\n"},
	}
	rules := mustRules(t, "R([a] -> [b])")
	for _, tc := range cases {
		_, oerr := LoadInstance(strings.NewReader(tc.data), tc.name, "R")
		_, serr := CheckReader(strings.NewReader(tc.data), tc.name, rules, Options{Parallel: 2})
		if (oerr == nil) != (serr == nil) {
			t.Errorf("%s: oracle err = %v, stream err = %v", tc.name, oerr, serr)
		}
	}
}

// TestLoadInstanceProvenance: the shared loader records authoritative
// lines that Violations propagates.
func TestLoadInstanceProvenance(t *testing.T) {
	in, err := LoadInstance(strings.NewReader(fig1CSV), "fig1", "R")
	if err != nil {
		t.Fatal(err)
	}
	if in.Len() != 6 {
		t.Fatalf("want 6 tuples, got %d", in.Len())
	}
	for i := 0; i < 6; i++ {
		if in.Line(i) != i+2 {
			t.Errorf("tuple %d line = %d, want %d", i, in.Line(i), i+2)
		}
	}
	vs, err := cfd.Violations(in, mustRules(t, "R([zip] -> [street])")[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].Line1 != 5 || vs[0].Line2 != 6 {
		t.Fatalf("zip->street violation = %+v, want lines 5,6", vs)
	}
}
