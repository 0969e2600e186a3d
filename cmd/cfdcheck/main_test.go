package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cfdprop/internal/cfd"
	"cfdprop/internal/stream"
)

var customersCSV = filepath.Join("testdata", "customers.csv")

func fig1Rules(t *testing.T) []*cfd.CFD {
	t.Helper()
	rules, err := loadCFDs(filepath.Join("testdata", "rules.txt"))
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

func TestLoadCFDs(t *testing.T) {
	if rules := fig1Rules(t); len(rules) != 6 {
		t.Fatalf("want 6 rules (comments skipped), got %d", len(rules))
	}
}

// TestFigure1Verdicts replays the Fig. 1 data against the rules file: the
// propagated CFDs hold, the plain FDs fail.
func TestFigure1Verdicts(t *testing.T) {
	rep, err := stream.CheckFile(customersCSV, fig1Rules(t), stream.Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, rr := range rep.Rules {
		satisfied := i < 4 // 4: zip -> street, 5: AC -> city
		if rr.Err != nil || (rr.Count == 0) != satisfied {
			t.Errorf("%s: count=%d err=%v, want satisfied=%v", rr.CFD, rr.Count, rr.Err, satisfied)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := stream.CheckFile(filepath.Join("testdata", "missing.csv"), fig1Rules(t), stream.Options{}); err == nil {
		t.Error("missing data file must fail")
	}
	if _, err := loadCFDs(filepath.Join("testdata", "missing.txt")); err == nil {
		t.Error("missing rules must fail")
	}
}

// TestMalformedInputsErrorCleanly is the satellite-2 regression: every
// malformed input class a user can feed cfdcheck must come back as an
// error — never a panic, which main would otherwise turn into a stack
// trace instead of a clean non-zero exit.
func TestMalformedInputsErrorCleanly(t *testing.T) {
	badCSV := []struct{ name, data string }{
		{"empty file", ""},
		{"ragged row", "a,b\n1,2,3\n"},
		{"unterminated quote", "a,b\n\"oops,2\n"},
		{"duplicate header", "a,a\n1,2\n"},
		{"empty header cell", "a,\n1,2\n"},
	}
	rules := []*cfd.CFD{cfd.MustParse("R([a] -> [b])")}
	for _, tc := range badCSV {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("CSV %s: panicked: %v", tc.name, r)
				}
			}()
			if _, err := stream.CheckReader(strings.NewReader(tc.data), tc.name, rules, stream.Options{}); err == nil {
				t.Errorf("CSV %s: accepted", tc.name)
			}
		}()
	}
	badRules := []struct{ name, data string }{
		{"empty file", ""},
		{"only comments", "# nothing here\n"},
		{"syntax error", "R(zip -> \n"},
		{"garbage", "\x00\x01\x02\n"},
		{"good then bad", "R(a -> b)\nR(((\n"},
	}
	for _, tc := range badRules {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("rules %s: panicked: %v", tc.name, r)
				}
			}()
			if _, err := readCFDs(strings.NewReader(tc.data), tc.name); err == nil {
				t.Errorf("rules %s: accepted", tc.name)
			}
		}()
	}
}

// TestCheckRulesTimeout: an expired context stops rule validation with the
// context's error (main maps it to exit status 3).
func TestCheckRulesTimeout(t *testing.T) {
	rules := fig1Rules(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, parallel := range []int{1, 4} {
		if _, err := stream.CheckFile(customersCSV, rules, stream.Options{Context: ctx, Parallel: parallel}); !errors.Is(err, context.Canceled) {
			t.Errorf("parallel=%d: check under cancelled context = %v, want context.Canceled", parallel, err)
		}
	}
}

// TestCheckRulesParallelMatchesSerial: one worker and four report the same
// verdicts in the same order, including when the first rule carries a
// schema error: every later rule is still evaluated, so -parallel 1 never
// reports differently from -parallel N.
func TestCheckRulesParallelMatchesSerial(t *testing.T) {
	rules := append([]*cfd.CFD{cfd.MustParse("R([nosuch] -> [city])")}, fig1Rules(t)...)
	ref, err := stream.CheckFile(customersCSV, rules, stream.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Rules[0].Err == nil {
		t.Fatal("schema-error rule did not error")
	}
	for i := 1; i < len(rules); i++ {
		if ref.Rules[i].Err != nil || ref.Rules[i].Passes != 1 {
			t.Fatalf("rule %d (%s) not evaluated after the schema error: err=%v passes=%d", i, rules[i], ref.Rules[i].Err, ref.Rules[i].Passes)
		}
	}
	if ref.Rules[len(rules)-1].Count == 0 {
		t.Fatal("the last rule (AC -> city, violated) reported no violation after the schema error")
	}
	got, err := stream.CheckFile(customersCSV, rules, stream.Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rules {
		g, r := got.Rules[i], ref.Rules[i]
		if len(g.Violations) != len(r.Violations) || g.Count != r.Count || (g.Err == nil) != (r.Err == nil) {
			t.Errorf("rule %d: parallel diverged from serial", i)
		}
	}
}

// TestReportLineNumbers is the headline-bugfix golden test: the printed
// violation locations are authoritative 1-based CSV file lines, not
// data-row ordinals. In testdata/customers.csv the zip=07974 tuples sit on
// file lines 5 and 6 (header is line 1) and the AC=131 tuples on lines 4
// and 7; the old output printed "rows 4 and 5" / "rows 3 and 6".
func TestReportLineNumbers(t *testing.T) {
	rep, err := stream.CheckFile(customersCSV, fig1Rules(t), stream.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	bad := printReport(&buf, rep, true)
	out := buf.String()
	if bad != 2 {
		t.Fatalf("want 2 violated rules, got %d\n%s", bad, out)
	}
	for _, want := range []string{
		"lines 5 and 6: ", // zip -> street: Tree Ave. vs Elm Str.
		"lines 4 and 7: ", // AC -> city: EDI vs NYC
		"2 of 6 CFDs violated",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
	for _, stale := range []string{"rows ", "lines 4 and 5", "lines 3 and 6"} {
		if strings.Contains(out, stale) {
			t.Errorf("report still prints ordinal-derived locations (%q):\n%s", stale, out)
		}
	}
}

// TestReportStreamMatchesInMemory: the printed report equals the one
// printed from the in-memory oracle (stream.LoadInstance + cfd.Violations),
// with and without -all, including when a group budget of 2 splits every
// FD into hash partitions.
func TestReportStreamMatchesInMemory(t *testing.T) {
	rules := fig1Rules(t)
	f, err := os.Open(customersCSV)
	if err != nil {
		t.Fatal(err)
	}
	in, err := stream.LoadInstance(f, customersCSV, "R")
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	oracle := &stream.Report{Schema: in.Schema, Rows: in.Len()}
	for _, c := range rules {
		vs, err := cfd.Violations(in, c)
		oracle.Rules = append(oracle.Rules, stream.RuleReport{CFD: c, Err: err, Count: len(vs), Violations: vs})
	}
	for _, all := range []bool{false, true} {
		retain := 1
		if all {
			retain = 0
		}
		for _, maxGroups := range []int{0, 2} {
			rep, err := stream.CheckFile(customersCSV, rules, stream.Options{Parallel: 3, MaxGroups: maxGroups, MaxViolations: retain})
			if err != nil {
				t.Fatal(err)
			}
			var memBuf, strBuf strings.Builder
			printReport(&memBuf, oracle, all)
			printReport(&strBuf, rep, all)
			if memBuf.String() != strBuf.String() {
				t.Errorf("all=%v max-groups=%d: stream report diverges from the oracle's:\n--- oracle\n%s--- stream\n%s", all, maxGroups, memBuf.String(), strBuf.String())
			}
		}
	}
}
