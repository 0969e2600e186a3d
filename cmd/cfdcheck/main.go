// Command cfdcheck validates CSV data against a set of CFDs — the data
// cleaning application of CFDs (Fan et al., §1): detect tuples that are
// inconsistent with the dependencies.
//
// Usage:
//
//	cfdcheck -data customers.csv -cfds rules.txt [-relation R] [-all]
//	         [-max-groups N] [-parallel N] [-timeout D]
//
// The check streams the file (internal/stream): it scans the CSV in chunks
// and keeps only one constant-size witness per tuple group, so memory is
// O(distinct groups), not O(rows). -parallel shards the groups across
// workers, and -max-groups caps the witnesses a rule retains in one pass;
// a rule with more groups is re-read in hash partitions that fit the cap.
// Results are identical at every -parallel and -max-groups value. The old
// -stream flag is still accepted, and ignored.
//
// Violations are reported with authoritative 1-based file line numbers —
// the header row is line 1, and quoted multi-line fields are accounted
// for — so the printed numbers match the file a user opens in an editor.
//
// -timeout bounds the whole run's wall-clock time (e.g. "30s"); hitting it
// exits with status 3.
//
// The CSV's first row must be the header (attribute names). The rules file
// holds one CFD per line in the text syntax of the library, e.g.
//
//	R([CC=44, zip] -> [street])
//	R(AC -> city)
//	# comment lines and blank lines are ignored
//
// Exit status is 0 when the data satisfies every CFD, 1 otherwise.
// Malformed input (bad CSV, unparsable rules) is reported on stderr with
// status 1 — never a stack trace.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cfdprop/internal/cfd"
	"cfdprop/internal/cliutil"
	"cfdprop/internal/stream"
)

func main() {
	// Backstop: library panics (which the audit says should not reach user
	// input, but defense in depth is cheap here) become a clean error exit.
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "cfdcheck: internal error: %v\n", r)
			os.Exit(1)
		}
	}()

	dataPath := flag.String("data", "", "CSV file with a header row")
	cfdsPath := flag.String("cfds", "", "file with one CFD per line")
	relation := flag.String("relation", "R", "relation name the CFDs are defined on")
	all := flag.Bool("all", false, "report every violation, not only the first per CFD")
	flag.String("stream", "", "ignored: every check streams (accepted so that existing scripts keep working)")
	maxGroups := flag.Int("max-groups", 1<<20, "witnesses a rule may retain in one pass before it is re-read in hash partitions (negative = unbounded)")
	common := cliutil.RegisterCommon(flag.CommandLine, "rule validation")
	flag.Parse()

	if *dataPath == "" || *cfdsPath == "" {
		fmt.Fprintln(os.Stderr, "cfdcheck: -data and -cfds are required")
		os.Exit(cliutil.ExitUsage)
	}

	ctx, cancel := common.Context()
	defer cancel()

	rules, err := loadCFDs(*cfdsPath)
	if err != nil {
		fatal(err)
	}
	retain := 1
	if *all {
		retain = 0 // keep everything
	}
	rep, err := stream.CheckFile(*dataPath, rules, stream.Options{
		Context:       ctx,
		Relation:      *relation,
		Parallel:      common.Parallel,
		MaxGroups:     *maxGroups,
		MaxViolations: retain,
	})
	if err != nil {
		cliutil.FatalStopped("cfdcheck", ctx, err)
	}

	// Errors (bad rule vs schema) surface before any per-rule output, in
	// rule order.
	for _, rr := range rep.Rules {
		if rr.Err != nil {
			fatal(rr.Err)
		}
	}
	bad := printReport(os.Stdout, rep, *all)
	if bad > 0 {
		os.Exit(1)
	}
}

// printReport writes the per-rule verdicts and the summary line, returning
// the number of violated rules. Violations are reported with their
// authoritative 1-based file line numbers (Line1/Line2), never row
// ordinals: the header row is line 1, so the first data row is line 2, and
// quoted multi-line fields shift later rows by the newlines they contain.
func printReport(w io.Writer, rep *stream.Report, all bool) int {
	bad := 0
	for _, rr := range rep.Rules {
		if rr.Count == 0 {
			fmt.Fprintf(w, "ok    %s\n", rr.CFD)
			continue
		}
		bad++
		fmt.Fprintf(w, "FAIL  %s: %d violation(s)\n", rr.CFD, rr.Count)
		limit := 1
		if all {
			limit = len(rr.Violations)
		}
		for k := 0; k < limit && k < len(rr.Violations); k++ {
			v := rr.Violations[k]
			fmt.Fprintf(w, "      lines %d and %d: %s\n", v.Line1, v.Line2, v.Reason)
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d of %d CFDs violated\n", bad, len(rep.Rules))
	} else {
		fmt.Fprintf(w, "all %d CFDs satisfied over %d tuples\n", len(rep.Rules), rep.Rows)
	}
	return bad
}

func loadCFDs(path string) ([]*cfd.CFD, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readCFDs(f, path)
}

// readCFDs parses the one-CFD-per-line rules format. Split from loadCFDs
// so the fuzz target can drive it without a file.
func readCFDs(src io.Reader, name string) ([]*cfd.CFD, error) {
	var out []*cfd.CFD
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		c, err := cfd.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("%s line %d: %w", name, line, err)
		}
		out = append(out, c)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no CFDs found", name)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "cfdcheck: %v\n", err)
	os.Exit(1)
}
