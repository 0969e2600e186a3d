package main

import (
	"os"
	"strings"
	"testing"
)

// FuzzReadCFDs throws arbitrary rules-file content at the line-oriented
// parser: it must return rules or an error, never panic, and every rule
// it accepts must carry a printable form that cfd.Parse round-trips (the
// deeper round-trip property is FuzzParse's job in internal/cfd).
func FuzzReadCFDs(f *testing.F) {
	if seed, err := os.ReadFile("testdata/rules.txt"); err == nil {
		f.Add(string(seed))
	}
	for _, s := range []string{
		"R(zip -> street)\nR(AC -> city)\n",
		"# only comments\n\n",
		"R([CC=44, zip] -> [street])",
		"R(\x00broken",
		strings.Repeat("R(a -> b)\n", 100),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		rules, err := readCFDs(strings.NewReader(data), "fuzz")
		if err != nil {
			return
		}
		if len(rules) == 0 {
			t.Fatalf("readCFDs returned no rules and no error on %q", data)
		}
		for _, r := range rules {
			if r == nil {
				t.Fatalf("readCFDs returned a nil rule on %q", data)
			}
		}
	})
}
