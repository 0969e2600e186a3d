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

// denseWorkload builds one relation of 10 attributes and num CFDs with LHS
// 1–3 and var% 80: short premises that chain, so a probe's firings reach
// its conclusion at a point that depends on their queue order.
func denseWorkload(seed int64, num int) (Universe, []*cfd.CFD) {
	rng := rand.New(rand.NewSource(seed))
	db := gen.Schema(rng, gen.SchemaParams{NumRelations: 1, MinAttrs: 10, MaxAttrs: 10})
	sigma := gen.CFDs(rng, db, gen.CFDParams{Num: num, LHSMin: 1, LHSMax: 3, VarPct: 80})
	return UniverseOf(db.Relations()[0]), sigma
}

// BenchmarkMinCover measures MinCover on the internal/gen workload at the
// sizes the acceptance criteria track, and on a grid-shaped bucket. It
// reports the implication probes per cover and the closure firings they
// drew.
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
			var probes, firings int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := NewSession(w.u)
				if _, err := s.MinCover(w.sigma); err != nil {
					b.Fatal(err)
				}
				for _, ps := range []ProbeStats{s.ProbeStats().LeftReduce, s.ProbeStats().Redundancy} {
					probes += ps.Probes()
					firings += ps.Firings
				}
			}
			b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
			b.ReportMetric(float64(firings)/float64(b.N), "firings/op")
		})
	}
}

// TestProbeStats requires two fresh sessions on the same Σ to report
// identical probe counts, pins those counts on a grid bucket and on a dense
// Σ, and requires the one-pass left-reduction to probe less than the
// restart scan does on the same work set. The closure stops as soon as the
// conclusion holds, so Firings depends on the order in which firings are
// queued. On the grid bucket every implied probe draws exactly its two
// deciding row firings; the dense Σ's firings chain, so a change to the
// queue order moves its pin even when every verdict stays the same.
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
	want := MinCoverStats{
		LeftReduce: ProbeStats{Implied: 313, Rejected: 849, Vacuous: 0, Firings: 626},
		Redundancy: ProbeStats{Implied: 0, Rejected: 200, Vacuous: 0, Firings: 0},
	}
	if got != want {
		t.Fatalf("grid MinCover counts %+v, want %+v", got, want)
	}
	du, dsigma := denseWorkload(13, 200)
	d := NewSession(du)
	if _, err := d.MinCover(dsigma); err != nil {
		t.Fatal(err)
	}
	wantDense := MinCoverStats{
		LeftReduce: ProbeStats{Implied: 179, Rejected: 191, Vacuous: 0, Firings: 2620},
		Redundancy: ProbeStats{Implied: 90, Rejected: 51, Vacuous: 0, Firings: 2463},
	}
	if got := d.ProbeStats(); got != wantDense {
		t.Fatalf("dense MinCover counts %+v, want %+v", got, wantDense)
	}

	s := NewSession(u)
	if err := s.minCoverNormalize(sigma); err != nil {
		t.Fatal(err)
	}
	var restart int64
	count := func(phi *cfd.CFD, _ []int) (bool, error) {
		restart++
		return s.implies(phi)
	}
	for _, c := range s.cfds() {
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
// compiled Σ — the MinCover/RBR access pattern. Every query starts by
// copying |Σ| starting counts; the large Σ sizes show what that copy costs.
func BenchmarkImpliesSession(b *testing.B) {
	for _, num := range []int{64, 150, 1000, 4000} {
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

// TestMinCoverWarmAllocations bounds the allocations of MinCover on a warm
// session, one whose buffers an earlier MinCover on the same Σ sized: two
// per CFD it shortens (the CFD and its LHS) plus minCoverAllocSlack, none
// per member or per probe. The input is normalized, so normalizing it
// allocates nothing.
func TestMinCoverWarmAllocations(t *testing.T) {
	const minCoverAllocSlack = 2 // the cover slice, and one spare
	u, sigma := gridWorkload(13, 200)
	sigma = cfd.NormalizeAll(sigma)
	s := NewSession(u)
	if _, err := s.MinCover(sigma); err != nil {
		t.Fatal(err)
	}
	shortened, c := 0, NewSession(u)
	if err := c.minCoverNormalize(sigma); err != nil {
		t.Fatal(err)
	}
	for i := range c.sigma {
		before := c.sigma[i].c
		r, err := c.leftReduceOne(i)
		if err != nil {
			t.Fatal(err)
		}
		if r != before {
			shortened++
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.MinCover(sigma); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocations per warm MinCover, %d CFDs shortened", allocs, shortened)
	if limit := float64(2*shortened + minCoverAllocSlack); shortened == 0 || allocs > limit {
		t.Errorf("a warm MinCover allocates %.1f times and shortens %d CFDs; want at most %.0f",
			allocs, shortened, limit)
	}
}
