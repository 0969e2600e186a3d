package bench

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"cfdprop/internal/algebra"
	"cfdprop/internal/cfd"
	"cfdprop/internal/gen"
	"cfdprop/internal/propagation"
	"cfdprop/internal/rel"
)

// ParallelPoint is one worker-count measurement of a scaling case.
type ParallelPoint struct {
	Workers int
	Runtime time.Duration // median over Trials runs
	Speedup float64       // Runtime(1 worker) / Runtime
}

// ParallelCase is one workload of the parallel-scaling experiment.
type ParallelCase struct {
	Name           string
	PairsChecked   int
	Instantiations int
	Points         []ParallelPoint
}

// DefaultParallelWorkers is the worker grid of the scaling table: serial,
// 2, 4, and whatever the host offers.
func DefaultParallelWorkers() []int {
	ws := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 2 && n != 4 {
		ws = append(ws, n)
	}
	return ws
}

// ParallelScaling measures propagation.Check wall time across worker
// counts on the two shapes the parallel front-end targets: a multi-pair
// union view (the O(k²) disjunct-pair fan-out) and a general-setting
// single pair with a large finite-domain instantiation space (the
// within-pair enumeration fan-out). Both workloads propagate, so every
// pair and every instantiation is examined — the worst case the §3
// procedures face, and the shape where parallel speedup is cleanest to
// read. Results are verified identical across worker counts.
func ParallelScaling(c Config, workers []int) ([]ParallelCase, error) {
	c = c.Defaults()
	if len(workers) == 0 {
		workers = DefaultParallelWorkers()
	}
	var out []ParallelCase

	db, view, sigma, phi := unionPairsWorkload(c.Seed, 8)
	cs, err := runParallelCase("union-pairs/k=8", c, workers, db, view, sigma, phi,
		propagation.Options{})
	if err != nil {
		return nil, err
	}
	out = append(out, *cs)

	db, view, sigma, phi = GeneralInstWorkload(c.Seed, 3, 4)
	cs, err = runParallelCase("general-inst/4^6", c, workers, db, view, sigma, phi,
		propagation.Options{General: true})
	if err != nil {
		return nil, err
	}
	out = append(out, *cs)
	return out, nil
}

// unionPairsWorkload builds a k-disjunct union view over one source
// relation, a Σ of pure FDs (a determining chain plus random filler, so
// every pair chases to completion), and a view FD propagated through the
// chain — every one of the k(k+1)/2 pairs runs the full chase.
func unionPairsWorkload(seed int64, k int) (*rel.DBSchema, *algebra.SPCU, []*cfd.CFD, *cfd.CFD) {
	const n = 10
	attrs := make([]string, n)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("A%d", i+1)
	}
	db := rel.MustDBSchema(rel.InfiniteSchema("R1", attrs...))

	rng := rand.New(rand.NewSource(seed ^ int64(hash("parallel/union"))))
	sigma := gen.CFDs(rng, db, gen.CFDParams{Num: 150, LHSMin: 2, LHSMax: 4, VarPct: 100})
	for i := 0; i+1 < n; i++ {
		sigma = append(sigma, cfd.MustParse(fmt.Sprintf("R1(%s -> %s)", attrs[i], attrs[i+1])))
	}

	ds := make([]*algebra.SPC, k)
	for d := range ds {
		ds[d] = &algebra.SPC{
			Name:       "V",
			Atoms:      []algebra.RelAtom{{Source: "R1", Attrs: attrs}},
			Selection:  []algebra.EqAtom{{Left: attrs[n-1], IsConst: true, Right: fmt.Sprintf("%d", d+1)}},
			Projection: attrs,
		}
	}
	view, err := algebra.NewSPCU("V", ds...)
	if err != nil {
		panic(err)
	}
	return db, view, sigma, cfd.MustParse("V(A1 -> A9)")
}

// GeneralInstWorkload builds a single-disjunct view over a relation with
// nFinite finite-domain attributes of the given domain size: the pair's
// two tableaux leave 2·nFinite unbound finite roots, so the general
// setting enumerates size^(2·nFinite) instantiations, each running the
// chase.
func GeneralInstWorkload(seed int64, nFinite, size int) (*rel.DBSchema, *algebra.SPCU, []*cfd.CFD, *cfd.CFD) {
	const n = 8
	attrs := make([]rel.Attribute, 0, n+nFinite)
	names := make([]string, 0, n+nFinite)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("A%d", i+1)
		attrs = append(attrs, rel.Attribute{Name: name, Domain: rel.Infinite()})
		names = append(names, name)
	}
	for i := 0; i < nFinite; i++ {
		vals := make([]string, size)
		for v := range vals {
			vals[v] = fmt.Sprintf("%d", v)
		}
		name := fmt.Sprintf("F%d", i+1)
		attrs = append(attrs, rel.Attribute{Name: name, Domain: rel.FiniteDomain("d", vals...)})
		names = append(names, name)
	}
	db := rel.MustDBSchema(rel.MustSchema("R1", attrs...))

	rng := rand.New(rand.NewSource(seed ^ int64(hash("parallel/general"))))
	sigma := gen.CFDs(rng, db, gen.CFDParams{Num: 60, LHSMin: 2, LHSMax: 3, VarPct: 100})
	for i := 0; i+1 < n; i++ {
		sigma = append(sigma, cfd.MustParse(fmt.Sprintf("R1(A%d -> A%d)", i+1, i+2)))
	}

	q := &algebra.SPC{
		Name:       "V",
		Atoms:      []algebra.RelAtom{{Source: "R1", Attrs: names}},
		Projection: names,
	}
	return db, algebra.Single(q), sigma, cfd.MustParse("V(A1 -> A8)")
}

// runParallelCase times one workload at every worker count, taking the
// median of c.Trials runs, and cross-checks that all worker counts agree
// on the Result.
func runParallelCase(name string, c Config, workers []int, db *rel.DBSchema, view *algebra.SPCU, sigma []*cfd.CFD, phi *cfd.CFD, base propagation.Options) (*ParallelCase, error) {
	out := &ParallelCase{Name: name}
	var ref *propagation.Result
	var serial time.Duration
	for _, w := range workers {
		opts := base
		opts.Parallelism = w
		opts.Context = c.Ctx
		times := make([]time.Duration, 0, c.Trials)
		var res *propagation.Result
		for t := 0; t < c.Trials; t++ {
			start := time.Now()
			r, err := propagation.Check(db, view, sigma, phi, opts)
			if err != nil {
				return nil, fmt.Errorf("bench %s workers=%d: %w", name, w, err)
			}
			if r.Stopped != propagation.StopNone {
				return nil, fmt.Errorf("bench %s workers=%d: stopped early (%s)", name, w, r.Stopped)
			}
			times = append(times, time.Since(start))
			res = r
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		med := times[len(times)/2]
		if ref == nil {
			ref = res
			serial = med
			out.PairsChecked = res.PairsChecked
			out.Instantiations = res.Instantiations
			if !res.Propagated {
				return nil, fmt.Errorf("bench %s: workload unexpectedly refuted", name)
			}
		} else if res.Propagated != ref.Propagated || res.PairsChecked != ref.PairsChecked ||
			res.Instantiations != ref.Instantiations || res.Truncated != ref.Truncated {
			return nil, fmt.Errorf("bench %s: workers=%d diverged from serial result", name, w)
		}
		out.Points = append(out.Points, ParallelPoint{
			Workers: w,
			Runtime: med,
			Speedup: float64(serial) / float64(med),
		})
	}
	return out, nil
}

// PrintParallel renders the scaling table.
func PrintParallel(w io.Writer, cases []ParallelCase) {
	fmt.Fprintf(w, "\n== parallel scaling (GOMAXPROCS=%d) ==\n", runtime.GOMAXPROCS(0))
	for _, cs := range cases {
		fmt.Fprintf(w, "%s  (pairs=%d insts=%d)\n", cs.Name, cs.PairsChecked, cs.Instantiations)
		fmt.Fprintf(w, "  %-8s %12s %8s\n", "workers", "median", "speedup")
		for _, p := range cs.Points {
			fmt.Fprintf(w, "  %-8d %12s %7.2fx\n", p.Workers, p.Runtime.Round(time.Microsecond), p.Speedup)
		}
	}
}
