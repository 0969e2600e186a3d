package bench

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"time"

	"cfdprop/internal/cfd"
	"cfdprop/internal/core"
	"cfdprop/internal/gen"
	"cfdprop/internal/implication"
)

// MinCoverProbes is one MinCover phase's implication probes, summed over
// relation buckets.
type MinCoverProbes struct {
	Probes  int64 `json:"probes"`
	Implied int64 `json:"implied"`
	Firings int64 `json:"firings"`
}

func (p *MinCoverProbes) add(o MinCoverProbes) {
	p.Probes += o.Probes
	p.Implied += o.Implied
	p.Firings += o.Firings
}

func probesOf(ps implication.ProbeStats) MinCoverProbes {
	return MinCoverProbes{Probes: ps.Probes(), Implied: ps.Implied, Firings: ps.Firings}
}

// MinCoverCell is one §5 grid cell: Fig. 2 line 1 as serial
// Session.MinCover over every relation bucket of the cell's Σ, then lines
// 2-13 (the tail) serially on the line-1 covers.
type MinCoverCell struct {
	Cell       string         `json:"cell"`
	CFDs       int            `json:"cfds"` // normalized Σ
	Kept       int            `json:"kept"` // CFDs in the line-1 covers
	Ms         float64        `json:"ms"`   // line 1: median wall time over the trials
	LeftReduce MinCoverProbes `json:"left_reduce"`
	Redundancy MinCoverProbes `json:"redundancy"`
	TailMs     float64        `json:"tail_ms"` // lines 2-13: median wall time over the trials
	Cover      int            `json:"cover"`   // CFDs in the view cover
}

// MinCoverRun is the mincover experiment: every cell, and their sum (whose
// ms and tail_ms are the sums of the cells' medians).
type MinCoverRun struct {
	PoolSeed int64          `json:"pool_seed"`
	Trials   int            `json:"trials"`
	Cells    []MinCoverCell `json:"cells"`
	Total    MinCoverCell   `json:"total"`
}

// MinCoverGrid times Fig. 2 line 1 — serial implication.Session.MinCover
// over Σ's per-relation buckets in first-appearance order — and then lines
// 2-13 on the concatenated line-1 covers — core.PropCFDSPC with
// SkipPreMinCover at Parallelism 1 — c.Trials times on each cell of the
// §5 grid. It counts each line-1 phase's probes and the cover size, which
// must repeat exactly across trials. The cells are drawn exactly as
// perfbench's cover workload draws them at pool seed c.Seed: Figs 5–8
// (|Σ| 200–2000, |Y| 5–50, |F| 1–10, |Ec| 2–11), every swept value once,
// var% alternating 40 and 50 along each sweep, over 10 relations of 10–20
// attributes with LHS 3–9, Σ drawn before the view. With quick only Fig.
// 5's first five cells run.
func MinCoverGrid(c Config, quick bool) (*MinCoverRun, error) {
	c = c.Defaults()
	run := &MinCoverRun{PoolSeed: c.Seed, Trials: c.Trials}
	for i := 0; i < 10; i++ {
		pct := 40 + 10*(i%2)
		for _, x := range [][5]int{
			{5, 200 * (i + 1), 25, 10, 4},
			{6, 2000, 5 * (i + 1), 10, 4},
			{7, 2000, 25, i + 1, 4},
			{8, 2000, 25, 10, i + 2},
		} {
			if quick && (x[0] != 5 || i >= 5) {
				continue
			}
			name := fmt.Sprintf("fig%d/|Sigma|=%d/Y=%d/F=%d/Ec=%d/var=%d", x[0], x[1], x[2], x[3], x[4], pct)
			rng := rand.New(rand.NewSource(c.Seed ^ int64(hash(name))*31))
			db := gen.Schema(rng, gen.SchemaParams{})
			sigma := cfd.NormalizeAll(gen.CFDs(rng, db, gen.CFDParams{Num: x[1], LHSMin: 3, LHSMax: 9, VarPct: pct}))
			view := gen.View(rng, db, "V", gen.ViewParams{Y: x[2], F: x[3], Ec: x[4]})
			byRel := make(map[string][]*cfd.CFD)
			var order []string
			for _, s := range sigma {
				if _, seen := byRel[s.Relation]; !seen {
					order = append(order, s.Relation)
				}
				byRel[s.Relation] = append(byRel[s.Relation], s)
			}
			var times, tailTimes []float64
			for trial := 0; trial < c.Trials; trial++ {
				cell := MinCoverCell{Cell: name, CFDs: len(sigma)}
				var covered []*cfd.CFD
				start := time.Now()
				for _, r := range order {
					sess := implication.NewSession(implication.UniverseOf(db.Relation(r)))
					sess.SetContext(c.Ctx)
					cover, err := sess.MinCover(byRel[r])
					if err != nil {
						return nil, fmt.Errorf("bench mincover %s %s: %w", name, r, err)
					}
					covered = append(covered, cover...)
					cell.LeftReduce.add(probesOf(sess.ProbeStats().LeftReduce))
					cell.Redundancy.add(probesOf(sess.ProbeStats().Redundancy))
				}
				times = append(times, float64(time.Since(start).Nanoseconds())/1e6)
				cell.Kept = len(covered)
				start = time.Now()
				res, err := core.PropCFDSPC(db, view, covered, core.Options{Context: c.Ctx, SkipPreMinCover: true, Parallelism: 1})
				if err != nil {
					return nil, fmt.Errorf("bench mincover %s tail: %w", name, err)
				}
				tailTimes = append(tailTimes, float64(time.Since(start).Nanoseconds())/1e6)
				cell.Cover = len(res.Cover)
				if trial == 0 {
					run.Cells = append(run.Cells, cell)
				} else if first := run.Cells[len(run.Cells)-1]; first != cell {
					return nil, fmt.Errorf("bench mincover %s: trial %d counts %+v, trial 0 %+v", name, trial, cell, first)
				}
			}
			slices.Sort(times)
			slices.Sort(tailTimes)
			cell := &run.Cells[len(run.Cells)-1]
			cell.Ms = times[len(times)/2]
			cell.TailMs = tailTimes[len(tailTimes)/2]
			run.Total.CFDs += cell.CFDs
			run.Total.Kept += cell.Kept
			run.Total.Ms += cell.Ms
			run.Total.LeftReduce.add(cell.LeftReduce)
			run.Total.Redundancy.add(cell.Redundancy)
			run.Total.TailMs += cell.TailMs
			run.Total.Cover += cell.Cover
		}
	}
	run.Total.Cell = fmt.Sprintf("total (%d cells)", len(run.Cells))
	return run, nil
}

// PrintMinCover renders the mincover experiment as a text table.
func PrintMinCover(w io.Writer, run *MinCoverRun) {
	fmt.Fprintf(w, "# Fig. 2 line 1 (serial Session.MinCover per relation bucket) and lines 2-13 (serial tail) (pool seed %d, median of %d)\n", run.PoolSeed, run.Trials)
	fmt.Fprintf(w, "%-44s %6s %6s %9s %9s %8s %10s %9s %8s %10s %9s %6s\n",
		"cell", "cfds", "kept", "ms", "lr.probe", "lr.impl", "lr.firing", "red.probe", "red.impl", "red.firing", "tail.ms", "cover")
	for _, c := range append(run.Cells, run.Total) {
		fmt.Fprintf(w, "%-44s %6d %6d %9.1f %9d %8d %10d %9d %8d %10d %9.1f %6d\n", c.Cell, c.CFDs, c.Kept, c.Ms,
			c.LeftReduce.Probes, c.LeftReduce.Implied, c.LeftReduce.Firings,
			c.Redundancy.Probes, c.Redundancy.Implied, c.Redundancy.Firings, c.TailMs, c.Cover)
	}
}
