// Benchmarks regenerating the paper's evaluation, one per table and
// figure. These run reduced parameter grids so `go test -bench=.` finishes
// in minutes; the full paper-scale sweeps are produced by cmd/benchfig.
package cfdprop_test

import (
	"fmt"
	"math/rand"
	"testing"

	"cfdprop/internal/algebra"
	"cfdprop/internal/bench"
	"cfdprop/internal/cfd"
	"cfdprop/internal/closure"
	"cfdprop/internal/core"
	"cfdprop/internal/gen"
	"cfdprop/internal/implication"
	"cfdprop/internal/propagation"
	"cfdprop/internal/rel"
)

// benchCfg is the reduced workload used by the figure benchmarks.
func benchCfg() bench.Config {
	return bench.Config{
		Seed:      1,
		Trials:    1,
		SigmaSize: 500,
		VarPcts:   []int{40},
		Y:         15,
		F:         6,
		Ec:        3,
	}
}

// workload generates one (schema, Σ, view) triple at the given sizes.
func workload(seed int64, sigma, y, f, ec int) (*rel.DBSchema, []*cfd.CFD, *algebra.SPC) {
	rng := rand.New(rand.NewSource(seed))
	db := gen.Schema(rng, gen.SchemaParams{})
	cfds := gen.CFDs(rng, db, gen.CFDParams{Num: sigma, LHSMin: 3, LHSMax: 9, VarPct: 40})
	view := gen.View(rng, db, "V", gen.ViewParams{Y: y, F: f, Ec: ec})
	return db, cfds, view
}

// BenchmarkFig5 regenerates Figure 5 (runtime and cover size vs |Σ|).
func BenchmarkFig5(b *testing.B) {
	for _, sigma := range []int{200, 400, 800} {
		b.Run(fmt.Sprintf("sigma=%d", sigma), func(b *testing.B) {
			db, cfds, view := workload(5, sigma, 15, 6, 3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.PropCFDSPC(db, view, cfds, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(res.Cover)), "viewCFDs")
			}
		})
	}
}

// BenchmarkFig6 regenerates Figure 6 (vs |Y|).
func BenchmarkFig6(b *testing.B) {
	for _, y := range []int{5, 15, 30} {
		b.Run(fmt.Sprintf("y=%d", y), func(b *testing.B) {
			db, cfds, view := workload(6, 500, y, 6, 3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.PropCFDSPC(db, view, cfds, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(res.Cover)), "viewCFDs")
			}
		})
	}
}

// BenchmarkFig7 regenerates Figure 7 (vs |F|).
func BenchmarkFig7(b *testing.B) {
	for _, f := range []int{1, 5, 10} {
		b.Run(fmt.Sprintf("f=%d", f), func(b *testing.B) {
			db, cfds, view := workload(7, 500, 15, f, 3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.PropCFDSPC(db, view, cfds, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(res.Cover)), "viewCFDs")
			}
		})
	}
}

// BenchmarkFig8 regenerates Figure 8 (vs |Ec|).
func BenchmarkFig8(b *testing.B) {
	for _, ec := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("ec=%d", ec), func(b *testing.B) {
			db, cfds, view := workload(8, 500, 15, 6, ec)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.PropCFDSPC(db, view, cfds, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(len(res.Cover)), "viewCFDs")
			}
		})
	}
}

// BenchmarkTable1 measures the propagation decision procedures across the
// Table 1 fragment grid (CFD sources).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTable(true)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkTable2 is the FD-source grid (Table 2).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTable(false)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkBlowup is the Example 4.1 exponential-cover ablation: RBR vs
// the closure baseline.
func BenchmarkBlowup(b *testing.B) {
	for _, n := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				points, err := bench.Blowup([]int{n}, 0)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(points[0].RBRCover), "rbrCover")
			}
		})
	}
}

// BenchmarkClosureBaseline isolates the textbook baseline.
func BenchmarkClosureBaseline(b *testing.B) {
	universe, fds, y := closure.BlowupFamily(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := closure.ProjectFDs("R", universe, fds, y, "V"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPreMinCover compares Fig. 2 line 1 on and off.
func BenchmarkAblationPreMinCover(b *testing.B) {
	db, cfds, view := workload(10, 500, 15, 6, 3)
	for _, skip := range []bool{false, true} {
		b.Run(fmt.Sprintf("skipPre=%v", skip), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.PropCFDSPC(db, view, cfds, core.Options{SkipPreMinCover: skip}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPropagationCheck measures a single decision-procedure call on
// the Example 1.1-scale workload.
func BenchmarkPropagationCheck(b *testing.B) {
	db, cfds, view := workload(11, 200, 15, 6, 3)
	phi := cfd.NewFD("V", []string{view.Projection[0]}, view.Projection[1])
	spcu := algebra.Single(view)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := propagation.Check(db, spcu, cfds, phi, propagation.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPropagationCheckGeneral measures the general-setting decision
// procedure (the factorised shared-prefix chase) on a 4^6 instantiation
// space at parallelism 1.
func BenchmarkPropagationCheckGeneral(b *testing.B) {
	db, spcu, sigma, phi := bench.GeneralInstWorkload(1, 3, 4)
	opts := propagation.Options{General: true, Parallelism: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := propagation.Check(db, spcu, sigma, phi, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImplication measures the two-tuple implication chase.
func BenchmarkImplication(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	db := gen.Schema(rng, gen.SchemaParams{NumRelations: 1, MinAttrs: 15, MaxAttrs: 15})
	s := db.Relations()[0]
	sigma := gen.CFDs(rng, db, gen.CFDParams{Num: 200, LHSMin: 3, LHSMax: 9, VarPct: 40})
	u := implication.UniverseOf(s)
	phi := cfd.NewFD(s.Name, []string{s.Attrs[0].Name, s.Attrs[1].Name}, s.Attrs[2].Name)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := implication.Implies(u, sigma, phi); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPropCFDSPC measures the end-to-end Fig. 2 algorithm with
// allocation reporting, at |Σ| 200 and 500.
func BenchmarkPropCFDSPC(b *testing.B) {
	for _, sigma := range []int{200, 500} {
		b.Run(fmt.Sprintf("sigma=%d", sigma), func(b *testing.B) {
			db, cfds, view := workload(5, sigma, 15, 6, 3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.PropCFDSPC(db, view, cfds, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMinCover measures MinCover on one relation's CFD bucket.
func BenchmarkMinCover(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	db := gen.Schema(rng, gen.SchemaParams{NumRelations: 1, MinAttrs: 15, MaxAttrs: 15})
	s := db.Relations()[0]
	sigma := gen.CFDs(rng, db, gen.CFDParams{Num: 150, LHSMin: 3, LHSMax: 6, VarPct: 40})
	u := implication.UniverseOf(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := implication.NewSession(u).MinCover(sigma); err != nil {
			b.Fatal(err)
		}
	}
}
