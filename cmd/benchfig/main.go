// Command benchfig regenerates the evaluation of Fan et al. (VLDB 2008):
// the runtime and cover-cardinality series behind Figures 5-8, the
// complexity-table demonstrations (Tables 1 and 2), and the Example 4.1
// blowup ablation.
//
// Usage:
//
//	benchfig [-exp all|fig5|fig6|fig7|fig8|table1|table2|blowup|parallel|incremental|stream|mincover]
//	         [-trials N] [-seed S] [-sigma N] [-rows N] [-quick] [-parallel N] [-json]
//
// -json replaces the text tables with one machine-readable report whose
// "host" stamp records the run date, Go version, GOMAXPROCS and CPU count
// — so a result file carries its own 1-CPU caveat when the process had a
// single scheduling slot.
//
// The parallel experiment emits a worker-scaling table (1, 2, 4 and
// GOMAXPROCS workers) for the §3 decision procedure on a multi-pair union
// view and a general-setting instantiation sweep; -parallel additionally
// sets the worker count the other experiments hand to PropCFD_SPC.
//
// The stream experiment (not part of -exp all: it writes a -rows-row
// synthetic CSV, 10M by default, to the temp directory) proves the
// bounded-memory streaming detector: it cross-checks internal/stream
// against the in-memory oracle on a small sibling file, then times the
// full file across the worker grid while a heap sampler asserts the fixed
// memory budget.
//
// The mincover experiment (not part of -exp all) times a §5 cover in two
// serial parts on each of the grid's 40 cells, drawn as perfbench's cover
// workload draws them with -seed as the pool seed: Fig. 2 line 1
// (implication.Session.MinCover over every relation bucket) and lines 2-13
// on its output (core.PropCFDSPC with SkipPreMinCover at Parallelism 1).
// Per cell it reports each part's median ms over -trials, each MinCover
// phase's probes, implied probes and closure firings, and the cover size.
//
// With -quick the sweeps run on reduced grids (useful for smoke tests);
// otherwise the paper's full parameter grids are used: |Σ| ∈ 200..2000,
// |Y| ∈ 5..50, |F| ∈ 1..10, |Ec| ∈ 2..11, var% ∈ {40, 50}.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cfdprop/internal/bench"
	"cfdprop/internal/cliutil"
)

// defaultStreamRows sizes the stream experiment's synthetic file: 10M
// tuples, the scale the streaming detector's memory model is proved at.
const defaultStreamRows = 10_000_000

func main() {
	exp := flag.String("exp", "all", "experiment: all, fig5, fig6, fig7, fig8, table1, table2, blowup, parallel, incremental, stream, mincover")
	trials := flag.Int("trials", 3, "random workloads per data point")
	rows := flag.Int("rows", defaultStreamRows, "synthetic row count for the stream experiment")
	seed := flag.Int64("seed", 1, "base RNG seed")
	sigma := flag.Int("sigma", 2000, "|Sigma| for the figure sweeps that fix it")
	quick := flag.Bool("quick", false, "reduced grids for a fast smoke run")
	jsonOut := flag.Bool("json", false, "emit one JSON report (with host info: go version, GOMAXPROCS, CPUs, date) instead of text tables")
	common := cliutil.RegisterCommon(flag.CommandLine, "the figure sweeps")
	flag.Parse()

	ctx, cancel := common.Context()
	defer cancel()

	cfg := bench.Config{Seed: *seed, Trials: *trials, SigmaSize: *sigma, Parallelism: common.Parallel, Ctx: ctx}
	if *quick {
		cfg.SigmaSize = 400
		cfg.Trials = 1
		cfg.VarPcts = []int{40}
	}

	// With -json results accumulate into one report (stamped with host
	// info) and print at the end; otherwise each experiment prints its
	// text tables as it finishes.
	report := &bench.Report{Host: bench.HostInfo()}
	run := func(name string) error {
		switch name {
		case "fig5", "fig6", "fig7", "fig8":
			var xs []int
			sweep := bench.Fig5
			switch name {
			case "fig5":
				if *quick {
					xs = []int{100, 200, 400}
				}
			case "fig6":
				sweep = bench.Fig6
				if *quick {
					xs = []int{5, 15, 25}
				}
			case "fig7":
				sweep = bench.Fig7
				if *quick {
					xs = []int{1, 5, 10}
				}
			case "fig8":
				sweep = bench.Fig8
				if *quick {
					xs = []int{2, 4, 6}
				}
			}
			series, err := sweep(cfg, xs)
			if err != nil {
				return err
			}
			if *jsonOut {
				report.Series = append(report.Series, series...)
			} else {
				bench.Print(os.Stdout, series)
			}
		case "table1", "table2":
			title := "Table 1: complexity of CFD propagation (demonstrated)"
			if name == "table2" {
				title = "Table 2: complexity of FD propagation (demonstrated)"
			}
			rows, err := bench.RunTable(name == "table1")
			if err != nil {
				return err
			}
			if *jsonOut {
				report.Tables = append(report.Tables, bench.Table{Title: title, Rows: rows})
			} else {
				bench.PrintTable(os.Stdout, title, rows)
			}
		case "blowup":
			ns := []int{2, 4, 6, 8, 10}
			if *quick {
				ns = []int{2, 4, 6}
			}
			points, err := bench.Blowup(ns, 0)
			if err != nil {
				return err
			}
			if *jsonOut {
				report.Blowup = points
			} else {
				bench.PrintBlowup(os.Stdout, points)
			}
		case "parallel":
			cases, err := bench.ParallelScaling(cfg, bench.DefaultParallelWorkers())
			if err != nil {
				return err
			}
			if *jsonOut {
				report.Parallel = cases
			} else {
				bench.PrintParallel(os.Stdout, cases)
			}
		case "incremental":
			ks := []int{6, 12, 24}
			if *quick {
				ks = []int{4, 8}
			}
			cases, err := bench.IncrementalEdits(cfg, ks)
			if err != nil {
				return err
			}
			patch, err := bench.IncrementalPatchDaemon(cfg, ks[len(ks)-1])
			if err != nil {
				return err
			}
			if *jsonOut {
				report.Incremental = cases
				report.IncrementalPatch = patch
			} else {
				bench.PrintIncremental(os.Stdout, cases, patch)
			}
		case "stream":
			n := *rows
			if *quick && n == defaultStreamRows {
				n = 200_000
			}
			cs, err := bench.StreamScaling(cfg, n, bench.DefaultParallelWorkers())
			if err != nil {
				return err
			}
			if *jsonOut {
				report.Stream = cs
			} else {
				bench.PrintStream(os.Stdout, cs)
			}
		case "mincover":
			run, err := bench.MinCoverGrid(cfg, *quick)
			if err != nil {
				return err
			}
			if *jsonOut {
				report.MinCover = run
			} else {
				bench.PrintMinCover(os.Stdout, run)
			}
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"table1", "table2", "blowup", "parallel", "incremental", "fig5", "fig6", "fig7", "fig8"}
	}
	// The sweeps observe cfg.Ctx cooperatively; the watchdog additionally
	// covers the experiments that take no Config (tables, blowup), so
	// -timeout bounds the whole run no matter which experiment is hot.
	errc := make(chan error, 1)
	go func() {
		for _, n := range names {
			// Figure names with a/b suffixes share one sweep.
			n = strings.TrimSuffix(strings.TrimSuffix(n, "a"), "b")
			if err := run(n); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	select {
	case err := <-errc:
		if err != nil {
			cliutil.FatalStopped("benchfig", ctx, err)
		}
	case <-ctx.Done():
		fmt.Fprintf(os.Stderr, "benchfig: %v\n", ctx.Err())
		os.Exit(cliutil.ExitStopped)
	}
	if *jsonOut {
		if err := report.WriteJSON(os.Stdout); err != nil {
			cliutil.Fatal("benchfig", err)
		}
	}
}
