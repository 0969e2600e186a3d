package implication

import (
	"fmt"
	"math/rand"
	"testing"

	"cfdprop/internal/cfd"
	"cfdprop/internal/gen"
)

// implBenchWorkload builds a single-relation workload of num CFDs plus a
// pool of normalized query CFDs, mirroring the §5 generator parameters.
func implBenchWorkload(seed int64, num int) (Universe, []*cfd.CFD, []*cfd.CFD) {
	rng := rand.New(rand.NewSource(seed))
	db := gen.Schema(rng, gen.SchemaParams{NumRelations: 1, MinAttrs: 15, MaxAttrs: 15})
	s := db.Relations()[0]
	sigma := cfd.NormalizeAll(gen.CFDs(rng, db, gen.CFDParams{Num: num, LHSMin: 3, LHSMax: 6, VarPct: 40}))
	phis := cfd.NormalizeAll(gen.CFDs(rng, db, gen.CFDParams{Num: 64, LHSMin: 2, LHSMax: 5, VarPct: 40}))
	return UniverseOf(s), sigma, phis
}

// gridWorkload builds one relation bucket shaped like the §5 grid's:
// 15 attributes and num CFDs with LHS 3–9 and var% 50.
func gridWorkload(seed int64, num int) (Universe, []*cfd.CFD) {
	rng := rand.New(rand.NewSource(seed))
	db := gen.Schema(rng, gen.SchemaParams{NumRelations: 1, MinAttrs: 15, MaxAttrs: 15})
	sigma := gen.CFDs(rng, db, gen.CFDParams{Num: num, LHSMin: 3, LHSMax: 9, VarPct: 50})
	return UniverseOf(db.Relations()[0]), sigma
}

// BenchmarkMinCover measures MinCover on the internal/gen workload at the
// sizes the acceptance criteria track, and on a grid-shaped bucket. It
// reports the implication probes per cover and how many of them chased.
func BenchmarkMinCover(b *testing.B) {
	type workload struct {
		name  string
		u     Universe
		sigma []*cfd.CFD
	}
	var loads []workload
	for _, num := range []int{64, 150} {
		u, sigma, _ := implBenchWorkload(13, num)
		loads = append(loads, workload{fmt.Sprintf("sigma=%d", num), u, sigma})
	}
	u, sigma := gridWorkload(13, 200)
	loads = append(loads, workload{"grid/sigma=200", u, sigma})
	for _, w := range loads {
		b.Run(w.name, func(b *testing.B) {
			var probes, chased int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := NewSession(w.u)
				if _, err := s.MinCover(w.sigma); err != nil {
					b.Fatal(err)
				}
				for _, ps := range []ProbeStats{s.ProbeStats().LeftReduce, s.ProbeStats().Redundancy} {
					probes += ps.Probes()
					chased += ps.ChasedImplied + ps.ChasedRejected
				}
			}
			b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
			b.ReportMetric(float64(chased)/float64(b.N), "chased/op")
		})
	}
}

// TestProbeStats requires two fresh sessions on the same Σ to report
// identical probe counts, and the one-pass left-reduction to probe less
// than the restart scan does on the same work set.
func TestProbeStats(t *testing.T) {
	u, sigma := gridWorkload(13, 200)
	a, b := NewSession(u), NewSession(u)
	for _, s := range []*Session{a, b} {
		if _, err := s.MinCover(sigma); err != nil {
			t.Fatal(err)
		}
	}
	got := a.ProbeStats()
	if got != b.ProbeStats() {
		t.Fatalf("two fresh sessions on one Σ count %+v and %+v", got, b.ProbeStats())
	}
	if got.LeftReduce.Probes() == 0 || got.Redundancy.Probes() == 0 {
		t.Fatalf("a phase made no probes: %+v", got)
	}

	s := NewSession(u)
	work, err := s.minCoverNormalize(sigma)
	if err != nil {
		t.Fatal(err)
	}
	var restart int64
	count := func(phi *cfd.CFD) (bool, error) {
		restart++
		return s.inner.implies(phi)
	}
	for _, c := range work {
		if _, err := leftReduceRestart(c, count); err != nil {
			t.Fatal(err)
		}
	}
	if got.LeftReduce.Probes() >= restart {
		t.Fatalf("one-pass left-reduction made %d probes, the restart scan %d; want fewer",
			got.LeftReduce.Probes(), restart)
	}
}

// TestImpliesSessionAllocationFree asserts the pooled session reaches a
// zero-allocation steady state: after a warmup pass sizes every buffer,
// repeated implication queries must not allocate.
func TestImpliesSessionAllocationFree(t *testing.T) {
	u, sigma, phis := implBenchWorkload(23, 96)
	sess, err := newSession(u, sigma)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		for _, phi := range phis {
			if _, err := sess.implies(phi); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // warmup: grow pooled buffers to steady state
	avg := testing.AllocsPerRun(100, run)
	if per := avg / float64(len(phis)); per > 0.01 {
		t.Errorf("steady-state implies allocates %.3f allocs/query, want 0", per)
	}
}

// BenchmarkImpliesSession measures repeated implication queries against one
// compiled Σ — the MinCover/RBR access pattern.
func BenchmarkImpliesSession(b *testing.B) {
	for _, num := range []int{64, 150} {
		b.Run(fmt.Sprintf("sigma=%d", num), func(b *testing.B) {
			u, sigma, phis := implBenchWorkload(17, num)
			sess, err := newSession(u, sigma)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.implies(phis[i%len(phis)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
