// Command propcfd computes minimal propagation covers and answers
// propagation queries for CFDs over SPC views (Fan et al., VLDB 2008).
//
// Usage:
//
//	propcfd -spec spec.json            # print the minimal propagation cover
//	propcfd -spec spec.json -check "V([A=1] -> [B])"
//	                                   # decide whether the CFD is propagated
//	propcfd -spec spec.json -server http://127.0.0.1:7419
//	                                   # same queries answered by a propcfdd daemon
//	propcfd -example                   # print a ready-to-edit example spec
//
// The spec format is documented in internal/spec: relations (attributes
// may declare finite domains as "name:v1|v2"), CFDs in the text syntax,
// and either "view" (an SPC query) or "union" (a list of SPC disjuncts).
// The cover algorithm handles a single SPC view exactly (§4 of the paper)
// and unions via the sound candidate heuristic; -check decides any
// SPC/SPCU view exactly, switching to the general-setting procedure when
// finite domains are declared.
//
// With -server the spec is sent to a running propcfdd instance instead of
// being computed in-process; the client retries 429/503 answers (the
// daemon's shed/drain contract) with backoff, honoring Retry-After. Both
// modes print an answer through the same functions, from the daemon's
// wire form, so their output is the same bytes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cfdprop/internal/algebra"
	"cfdprop/internal/cfd"
	"cfdprop/internal/cliutil"
	"cfdprop/internal/core"
	"cfdprop/internal/daemon"
	"cfdprop/internal/propagation"
	"cfdprop/internal/rel"
	"cfdprop/internal/spec"
	"cfdprop/internal/sym"
)

const exampleSpec = `{
  "relations": [
    {"name": "R1", "attrs": ["AC", "phn", "name", "street", "city", "zip"]}
  ],
  "cfds": [
    "R1(zip -> street)",
    "R1(AC -> city)",
    "R1([AC=20] -> [city=ldn])"
  ],
  "view": {
    "name": "R",
    "consts": [{"attr": "CC", "value": "44"}],
    "atoms": [{"source": "R1", "attrs": ["AC", "phn", "name", "street", "city", "zip"]}],
    "projection": ["CC", "AC", "phn", "name", "street", "city", "zip"]
  }
}`

func main() {
	specPath := flag.String("spec", "", "JSON spec with relations, cfds and the view")
	check := flag.String("check", "", "decide propagation of this view CFD instead of printing the cover")
	example := flag.Bool("example", false, "print an example spec and exit")
	heuristic := flag.Int("max-cover", 0, "heuristic bound on the working cover size (0 = exact)")
	server := flag.String("server", "", "base URL of a propcfdd daemon; queries are sent there instead of computed locally")
	common := cliutil.RegisterCommon(flag.CommandLine, "the pair loop and cover subroutines")
	flag.Parse()

	ctx, cancel := common.Context()
	defer cancel()

	if *example {
		fmt.Println(exampleSpec)
		return
	}
	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "propcfd: -spec is required (see -example)")
		os.Exit(cliutil.ExitUsage)
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		cliutil.Fatal("propcfd", err)
	}

	if *server != "" {
		remote(ctx, *server, data, *check, *heuristic, common)
		return
	}

	db, sigma, view, err := spec.Decode(data)
	if err != nil {
		cliutil.Fatal("propcfd", err)
	}

	if *check != "" {
		phi, err := cfd.Parse(*check)
		if err != nil {
			cliutil.Fatal("propcfd", err)
		}
		res, err := checkLocal(ctx, db, view, sigma, phi, common.Parallel)
		if err != nil {
			cliutil.Fatal("propcfd", err)
		}
		if !printCheck(os.Stdout, res) {
			os.Exit(cliutil.ExitFailure)
		}
		return
	}

	cover, err := coverLocal(db, view, sigma, core.Options{MaxCoverSize: *heuristic, Parallelism: common.Parallel, Context: ctx})
	if err != nil {
		cliutil.FatalStopped("propcfd", ctx, err)
	}
	printCover(os.Stdout, cover)
}

// coverLocal computes the view's cover in-process and returns it in the
// daemon's wire form: exact for a single SPC view unless the heuristic
// bound truncated it, else the union's sound candidate heuristic.
func coverLocal(db *rel.DBSchema, view *algebra.SPCU, sigma []*cfd.CFD, opts core.Options) (*daemon.CoverResponse, error) {
	if len(view.Disjuncts) != 1 {
		res, err := core.PropCFDSPCU(db, view, sigma, opts)
		if err != nil {
			return nil, err
		}
		return &daemon.CoverResponse{ViewSchema: res.ViewSchema.String(), Cover: cfdStrings(res.Cover)}, nil
	}
	res, err := core.PropCFDSPC(db, view.Disjuncts[0], sigma, opts)
	if err != nil {
		return nil, err
	}
	return &daemon.CoverResponse{
		ViewSchema:  res.ViewSchema.String(),
		Cover:       cfdStrings(res.Cover),
		Exact:       !res.Truncated,
		AlwaysEmpty: res.AlwaysEmpty,
		Truncated:   res.Truncated,
	}, nil
}

// checkLocal decides φ in-process and returns the answer in the daemon's
// wire form.
func checkLocal(ctx context.Context, db *rel.DBSchema, view *algebra.SPCU, sigma []*cfd.CFD, phi *cfd.CFD, parallel int) (daemon.CheckResult, error) {
	res, err := propagation.Check(db, view, sigma, phi,
		propagation.Options{General: db.HasFiniteAttr(), WantCounterexample: true, Parallelism: parallel, Context: ctx})
	if err != nil {
		return daemon.CheckResult{}, err
	}
	return daemon.ResultOf(phi.String(), res, db), nil
}

// checkRemote asks a propcfdd daemon to decide φ. φ travels in its
// canonical text, so the answer echoes it as checkLocal's does.
func checkRemote(ctx context.Context, client *daemon.Client, problem *spec.Problem, phi *cfd.CFD, parallel int, deadlineMillis int64) (daemon.CheckResult, error) {
	resp, err := client.Check(ctx, &daemon.CheckRequest{
		Spec:               problem,
		Phi:                phi.String(),
		WantCounterexample: true,
		Parallelism:        parallel,
		DeadlineMillis:     deadlineMillis,
	})
	if err != nil {
		return daemon.CheckResult{}, err
	}
	return resp.Results[0], nil
}

// remote answers the same queries through a propcfdd daemon, printing
// them through the same functions as the local paths.
func remote(ctx context.Context, base string, data []byte, check string, heuristic int, common *cliutil.Common) {
	var problem spec.Problem
	if err := json.Unmarshal(data, &problem); err != nil {
		cliutil.Fatal("propcfd", fmt.Errorf("spec: %w", err))
	}
	client := &daemon.Client{Base: base}
	deadlineMillis := common.Timeout.Milliseconds()

	if check != "" {
		phi, err := cfd.Parse(check)
		if err != nil {
			cliutil.Fatal("propcfd", err)
		}
		res, err := checkRemote(ctx, client, &problem, phi, common.Parallel, deadlineMillis)
		if err != nil {
			cliutil.FatalStopped("propcfd", ctx, err)
		}
		if !printCheck(os.Stdout, res) {
			os.Exit(cliutil.ExitFailure)
		}
		return
	}

	resp, err := client.Cover(ctx, &daemon.CoverRequest{
		Spec:           &problem,
		MaxCoverSize:   heuristic,
		Parallelism:    common.Parallel,
		DeadlineMillis: deadlineMillis,
	})
	if err != nil {
		cliutil.FatalStopped("propcfd", ctx, err)
	}
	printCover(os.Stdout, resp)
}

// printCheck prints a check answer and reports whether φ is propagated.
// Fresh constants in a counterexample print as ⋆n.
func printCheck(w io.Writer, res daemon.CheckResult) bool {
	if res.Truncated {
		fmt.Fprintln(w, "# warning: finite-domain enumeration hit the instantiation cap; a propagated verdict is not exhaustive")
	}
	if res.Stopped != propagation.StopNone {
		fmt.Fprintf(w, "# warning: check stopped early (%s); a propagated verdict only means no counterexample was found before the stop\n", res.Stopped)
	}
	if res.Propagated {
		fmt.Fprintf(w, "PROPAGATED: %s\n", res.Phi)
		return true
	}
	fmt.Fprintf(w, "NOT PROPAGATED: %s\n", res.Phi)
	if len(res.Counterexample) > 0 {
		fmt.Fprintln(w, "counterexample source database:")
		for _, wr := range res.Counterexample {
			fmt.Fprintf(w, "%s(%s)\n", wr.Name, strings.Join(wr.Attrs, ", "))
			for _, t := range wr.Tuples {
				row := make([]string, len(t))
				for i, v := range t {
					row[i] = sym.DisplayConstant(v)
				}
				fmt.Fprintf(w, "  (%s)\n", strings.Join(row, ", "))
			}
		}
	}
	return false
}

// printCover prints a cover answer.
func printCover(w io.Writer, res *daemon.CoverResponse) {
	if res.AlwaysEmpty {
		fmt.Fprintln(w, "# view is empty for every source satisfying the CFDs")
	}
	if res.Truncated {
		fmt.Fprintln(w, "# heuristic bound reached: this is a subset of a cover")
	}
	// Only a single SPC view's cover is truncated: the union heuristic
	// has no bound.
	if res.Exact || res.Truncated {
		fmt.Fprintf(w, "# minimal propagation cover (%d CFDs) on %s\n", len(res.Cover), res.ViewSchema)
	} else {
		fmt.Fprintf(w, "# propagated CFDs on the union (%d CFDs, sound candidate heuristic) on %s\n", len(res.Cover), res.ViewSchema)
	}
	for _, c := range res.Cover {
		fmt.Fprintln(w, c)
	}
}

// cfdStrings renders CFDs in the text syntax, as the daemon's answers
// carry them.
func cfdStrings(cs []*cfd.CFD) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.String()
	}
	return out
}
