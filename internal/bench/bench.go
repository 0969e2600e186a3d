// Package bench is the experiment harness for the paper's evaluation (§5):
// it regenerates the series behind every figure (5a/5b, 6a/6b, 7a/7b,
// 8a/8b), the complexity-table demonstrations (Tables 1 and 2), and the
// Example 4.1 blowup ablation comparing RBR against the closure baseline.
//
// Each figure sweeps one parameter of the (Σ, V) workload while the others
// stay at the paper's defaults (|Σ|=2000, |Y|=25, |F|=10, |Ec|=4, LHS ≤ 9,
// var% ∈ {40, 50}); every point averages Trials randomly generated
// workloads, all seeded deterministically.
package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"cfdprop/internal/core"
	"cfdprop/internal/gen"
)

// Config are the workload knobs shared by all figure sweeps.
type Config struct {
	Seed   int64
	Trials int // workloads per data point (the paper averages 10×5 runs)

	// Ctx, when non-nil, bounds every sweep: cancellation or deadline
	// expiry aborts the run with the context's error instead of letting a
	// long grid finish.
	Ctx context.Context

	SigmaSize int   // |Σ| default 2000
	LHSMin    int   // default 3
	LHSMax    int   // default 9
	VarPcts   []int // default {40, 50}
	Y         int   // default 25
	F         int   // default 10
	Ec        int   // default 4

	// Parallelism is passed through to core.Options for the figure
	// sweeps (0 = GOMAXPROCS, 1 = serial).
	Parallelism int
}

// Defaults fills the paper's §5 defaults for unset fields.
func (c Config) Defaults() Config {
	if c.Trials <= 0 {
		c.Trials = 3
	}
	if c.SigmaSize <= 0 {
		c.SigmaSize = 2000
	}
	if c.LHSMin <= 0 {
		c.LHSMin = 3
	}
	if c.LHSMax <= 0 {
		c.LHSMax = 9
	}
	if len(c.VarPcts) == 0 {
		c.VarPcts = []int{40, 50}
	}
	if c.Y <= 0 {
		c.Y = 25
	}
	if c.F <= 0 {
		c.F = 10
	}
	if c.Ec <= 0 {
		c.Ec = 4
	}
	return c
}

// Point is one measurement of a series.
type Point struct {
	X         int           // the swept parameter value
	Runtime   time.Duration // mean wall time of PropCFD_SPC
	CoverSize float64       // mean minimal-cover cardinality
}

// Series is one plotted line: a var% setting over the swept parameter.
type Series struct {
	Figure string // "fig5a", ...
	XLabel string
	VarPct int
	Points []Point
}

// runPoint generates Trials workloads for one (x, var%) cell and averages.
func runPoint(c Config, varPct int, sigmaSize, y, f, ec int, cell string) (Point, error) {
	var totalTime time.Duration
	var totalCover int
	for trial := 0; trial < c.Trials; trial++ {
		rng := rand.New(rand.NewSource(c.Seed ^ int64(hash(cell)) ^ int64(trial)*7919))
		db := gen.Schema(rng, gen.SchemaParams{})
		sigma := gen.CFDs(rng, db, gen.CFDParams{Num: sigmaSize, LHSMin: c.LHSMin, LHSMax: c.LHSMax, VarPct: varPct})
		view := gen.View(rng, db, "V", gen.ViewParams{Y: y, F: f, Ec: ec})
		start := time.Now()
		res, err := core.PropCFDSPC(db, view, sigma, core.Options{Parallelism: c.Parallelism, Context: c.Ctx})
		if err != nil {
			return Point{}, fmt.Errorf("bench %s trial %d: %w", cell, trial, err)
		}
		totalTime += time.Since(start)
		totalCover += len(res.Cover)
	}
	return Point{
		Runtime:   totalTime / time.Duration(c.Trials),
		CoverSize: float64(totalCover) / float64(c.Trials),
	}, nil
}

func hash(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// sweep runs one figure pair (runtime + cover size share the same runs).
func sweep(c Config, figure, xLabel string, xs []int, apply func(x int) (sigma, y, f, ec int)) ([]Series, error) {
	var out []Series
	for _, v := range c.VarPcts {
		s := Series{Figure: figure, XLabel: xLabel, VarPct: v}
		for _, x := range xs {
			sg, y, f, ec := apply(x)
			cell := fmt.Sprintf("%s/x=%d/var=%d", figure, x, v)
			p, err := runPoint(c, v, sg, y, f, ec, cell)
			if err != nil {
				return nil, err
			}
			p.X = x
			s.Points = append(s.Points, p)
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig5 varies |Σ| from 200 to 2000 (Figures 5(a) runtime and 5(b) cover
// cardinality share these runs).
func Fig5(c Config, xs []int) ([]Series, error) {
	c = c.Defaults()
	if len(xs) == 0 {
		xs = []int{200, 400, 600, 800, 1000, 1200, 1400, 1600, 1800, 2000}
	}
	return sweep(c, "fig5", "|Sigma|", xs, func(x int) (int, int, int, int) {
		return x, c.Y, c.F, c.Ec
	})
}

// Fig6 varies |Y| from 5 to 50.
func Fig6(c Config, xs []int) ([]Series, error) {
	c = c.Defaults()
	if len(xs) == 0 {
		xs = []int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50}
	}
	return sweep(c, "fig6", "|Y|", xs, func(x int) (int, int, int, int) {
		return c.SigmaSize, x, c.F, c.Ec
	})
}

// Fig7 varies |F| from 1 to 10.
func Fig7(c Config, xs []int) ([]Series, error) {
	c = c.Defaults()
	if len(xs) == 0 {
		xs = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	}
	return sweep(c, "fig7", "|F|", xs, func(x int) (int, int, int, int) {
		return c.SigmaSize, c.Y, x, c.Ec
	})
}

// Fig8 varies |Ec| from 2 to 11.
func Fig8(c Config, xs []int) ([]Series, error) {
	c = c.Defaults()
	if len(xs) == 0 {
		xs = []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	}
	return sweep(c, "fig8", "|Ec|", xs, func(x int) (int, int, int, int) {
		return c.SigmaSize, c.Y, c.F, x
	})
}

// Print renders series as aligned text tables, one block per series.
func Print(w io.Writer, series []Series) {
	for _, s := range series {
		fmt.Fprintf(w, "# %s (var%%=%d)\n", s.Figure, s.VarPct)
		fmt.Fprintf(w, "%-10s %-14s %-10s\n", s.XLabel, "runtime", "view CFDs")
		for _, p := range s.Points {
			fmt.Fprintf(w, "%-10d %-14s %-10.1f\n", p.X, p.Runtime.Round(time.Millisecond), p.CoverSize)
		}
		fmt.Fprintln(w)
	}
}
