//go:build faultinject

package stream

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"cfdprop/internal/cfd"
	"cfdprop/internal/faultinject"
)

// The streaming half of the randomized crash-safety suite: panics and
// delays injected at the chunk seam (SiteStreamChunk, once per chunk of
// every pass inside the mapper stage). Invariants: an injected panic surfaces as the
// check's error — never a process crash, a deadlocked WaitGroup, or a
// partial report — and a delay never changes the report, because the
// merge sorts by the oracle-order key rather than trusting scheduling.
// Run with: go test -race -tags faultinject ./internal/stream/

func crashFixture(rows int) (string, []*cfd.CFD) {
	var sb strings.Builder
	sb.WriteString("A,B,C\n")
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "k%d,%d,c\n", rng.Intn(rows/4+1), rng.Intn(3))
	}
	return sb.String(), []*cfd.CFD{
		cfd.MustParse("R([A] -> [B])"),
		cfd.MustParse("R([A=k1] -> [B=0])"),
		cfd.MustParse("R(B == C)"),
	}
}

func TestCrashInjectedPanicSurfacesAsError(t *testing.T) {
	data, rules := crashFixture(400)
	opts := Options{Parallel: 3, ChunkSize: 16}
	nchunks := (400 + 15) / 16
	for _, nth := range []int64{1, int64(nchunks / 2), int64(nchunks)} {
		faultinject.Install(faultinject.Rule{Site: faultinject.SiteStreamChunk, Nth: nth, Act: faultinject.Panic})
		rep, err := CheckReader(strings.NewReader(data), "crash", rules, opts)
		faultinject.Reset()
		if err == nil {
			t.Fatalf("nth=%d: injected panic did not surface (report: %+v)", nth, rep)
		}
		if !strings.Contains(err.Error(), "stream: mapper panic") ||
			!strings.Contains(err.Error(), "faultinject: injected panic at stream.chunk") {
			t.Fatalf("nth=%d: error %q does not carry the injected payload through the mapper guard", nth, err)
		}
		if rep != nil {
			t.Fatalf("nth=%d: non-nil report alongside error", nth)
		}
	}
}

func TestCrashDelayPreservesReport(t *testing.T) {
	data, rules := crashFixture(400)
	opts := Options{Parallel: 4, ChunkSize: 8}
	faultinject.Reset()
	want, err := CheckReader(strings.NewReader(data), "crash", rules, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		faultinject.Install(
			faultinject.Rule{Site: faultinject.SiteStreamChunk, Nth: int64(1 + rng.Intn(40)), Act: faultinject.Delay, Delay: 5 * time.Millisecond},
			faultinject.Rule{Site: faultinject.SiteStreamChunk, Nth: int64(1 + rng.Intn(40)), Act: faultinject.Delay, Delay: 2 * time.Millisecond},
		)
		got, err := CheckReader(strings.NewReader(data), "crash", rules, opts)
		faultinject.Reset()
		if err != nil {
			t.Fatalf("trial %d: delayed run failed: %v", trial, err)
		}
		if got.Rows != want.Rows || len(got.Rules) != len(want.Rules) {
			t.Fatalf("trial %d: report shape diverged", trial)
		}
		for ri := range want.Rules {
			g, w := got.Rules[ri], want.Rules[ri]
			if g.Count != w.Count || len(g.Violations) != len(w.Violations) {
				t.Fatalf("trial %d rule %d: %d/%d violations, want %d/%d", trial, ri, g.Count, len(g.Violations), w.Count, len(w.Violations))
			}
			for k := range w.Violations {
				if g.Violations[k] != w.Violations[k] {
					t.Fatalf("trial %d rule %d violation %d: %+v != %+v", trial, ri, k, g.Violations[k], w.Violations[k])
				}
			}
		}
	}
}

// TestCrashPanicThenCleanRun: after a fault clears, a fresh check over the
// same input is byte-identical to the unfaulted baseline — no state leaks
// across runs.
func TestCrashPanicThenCleanRun(t *testing.T) {
	data, rules := crashFixture(200)
	opts := Options{Parallel: 2, ChunkSize: 16}
	faultinject.Reset()
	want, err := CheckReader(strings.NewReader(data), "crash", rules, opts)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Install(faultinject.Rule{Site: faultinject.SiteStreamChunk, Nth: 2, Act: faultinject.Panic})
	if _, err := CheckReader(strings.NewReader(data), "crash", rules, opts); err == nil {
		t.Fatal("injected panic did not surface")
	}
	faultinject.Reset()
	got, err := CheckReader(strings.NewReader(data), "crash", rules, opts)
	if err != nil {
		t.Fatal(err)
	}
	for ri := range want.Rules {
		if got.Rules[ri].Count != want.Rules[ri].Count {
			t.Fatalf("rule %d count %d after fault cleared, want %d", ri, got.Rules[ri].Count, want.Rules[ri].Count)
		}
	}
}

// TestCrashPartitionPasses reaches the passes that re-read the input in
// hash partitions: a panic injected at a chunk past the first pass's chunk
// count surfaces as the check's error with no report, delays there leave
// the report unchanged (Passes and Groups included), and a clean run
// afterwards equals the baseline.
func TestCrashPartitionPasses(t *testing.T) {
	data, rules := crashFixture(400)
	open := func() (io.ReadCloser, error) { return io.NopCloser(strings.NewReader(data)), nil }
	opts := Options{Parallel: 3, ChunkSize: 16, MaxGroups: 20}
	nchunks := (400 + 15) / 16 // chunks in the first pass
	faultinject.Reset()
	want, err := Check(open, "crash", rules, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want.Rules[0].Passes < 3 {
		t.Fatalf("rule 0 took %d passes; the fixture must split it into partitions", want.Rules[0].Passes)
	}
	same := func(label string, got *Report) {
		t.Helper()
		if got.Rows != want.Rows || len(got.Rules) != len(want.Rules) {
			t.Fatalf("%s: report shape diverged", label)
		}
		for ri := range want.Rules {
			g, w := got.Rules[ri], want.Rules[ri]
			if g.Count != w.Count || g.Passes != w.Passes || g.Groups != w.Groups || len(g.Violations) != len(w.Violations) {
				t.Fatalf("%s rule %d: count/passes/groups/retained %d/%d/%d/%d, want %d/%d/%d/%d", label, ri,
					g.Count, g.Passes, g.Groups, len(g.Violations), w.Count, w.Passes, w.Groups, len(w.Violations))
			}
			for k := range w.Violations {
				if g.Violations[k] != w.Violations[k] {
					t.Fatalf("%s rule %d violation %d: %+v != %+v", label, ri, k, g.Violations[k], w.Violations[k])
				}
			}
		}
	}

	for _, nth := range []int64{int64(nchunks + 1), int64(nchunks + 7), int64(3 * nchunks)} {
		faultinject.Install(faultinject.Rule{Site: faultinject.SiteStreamChunk, Nth: nth, Act: faultinject.Panic})
		rep, err := Check(open, "crash", rules, opts)
		faultinject.Reset()
		if err == nil {
			t.Fatalf("nth=%d: injected panic did not surface", nth)
		}
		if !strings.Contains(err.Error(), "stream: mapper panic") ||
			!strings.Contains(err.Error(), "faultinject: injected panic at stream.chunk") {
			t.Fatalf("nth=%d: error %q does not carry the injected payload through the mapper guard", nth, err)
		}
		if rep != nil {
			t.Fatalf("nth=%d: non-nil report alongside error", nth)
		}
	}

	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		faultinject.Install(
			faultinject.Rule{Site: faultinject.SiteStreamChunk, Nth: int64(nchunks + 1 + rng.Intn(60)), Act: faultinject.Delay, Delay: 5 * time.Millisecond},
			faultinject.Rule{Site: faultinject.SiteStreamChunk, Nth: int64(nchunks + 1 + rng.Intn(60)), Act: faultinject.Delay, Delay: 2 * time.Millisecond},
		)
		got, err := Check(open, "crash", rules, opts)
		faultinject.Reset()
		if err != nil {
			t.Fatalf("trial %d: delayed run failed: %v", trial, err)
		}
		same(fmt.Sprintf("trial %d", trial), got)
	}

	got, err := Check(open, "crash", rules, opts)
	if err != nil {
		t.Fatal(err)
	}
	same("clean run", got)
}
