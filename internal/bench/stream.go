package bench

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"cfdprop/internal/cfd"
	"cfdprop/internal/stream"
)

// The streaming-detection experiment: generate a synthetic customer file
// of N rows, check it with the bounded-memory streaming detector
// (internal/stream) across a worker grid, and record wall-clock medians
// together with the observed heap peak — the number that proves the
// detector's memory model. The run FAILS (returns an error) when the heap
// peak exceeds StreamHeapBudget, so a report that exists at all is a proof
// the budget held; and on a small sibling file the streaming report is
// cross-checked violation-by-violation against the in-memory oracle
// (stream.LoadInstance + cfd.Violations).

// StreamHeapBudget is the fixed heap budget the scaling run must stay
// within, independent of row count: the witness maps are bounded by group
// cardinality and in-flight chunks by the worker count, so 10M rows check
// in the same space as 1M.
const StreamHeapBudget = 512 << 20

// StreamPoint is one worker-count measurement.
type StreamPoint struct {
	Workers int           `json:"workers"`
	Runtime time.Duration `json:"runtime_ns"`
	Speedup float64       `json:"speedup"`
	// HeapPeak is the maximum heap-in-use observed by a 20ms sampler over
	// the median run, in bytes.
	HeapPeak uint64 `json:"heap_peak_bytes"`
}

// StreamCase is the streaming-detection scaling experiment's report.
type StreamCase struct {
	Name       string `json:"name"`
	Rows       int    `json:"rows"`
	FileBytes  int64  `json:"file_bytes"`
	Rules      int    `json:"rules"`
	Violations int    `json:"violations"` // exact total across rules
	Groups     int    `json:"groups"`     // witness groups across rules
	Passes     int    `json:"passes"`     // input scans across rules (rules when none overflows)
	// HeapBudget is the budget every point was asserted against; MaxRSS is
	// the process peak RSS after the sweep (Linux: KiB), cumulative and so
	// an upper bound that includes generation and the oracle check.
	HeapBudget uint64 `json:"heap_budget_bytes"`
	MaxRSSKB   int64  `json:"max_rss_kb,omitempty"`
	// OracleRows is the size of the sibling file on which the streaming
	// report was verified equal to the in-memory oracle's.
	OracleRows int           `json:"oracle_rows"`
	Points     []StreamPoint `json:"points"`
}

// streamRules is the rule set of the experiment: three standard CFDs with
// distinct group cardinalities plus one constant-pattern CFD, mirroring
// the paper's Fig. 1 schema.
func streamRules() []*cfd.CFD {
	return []*cfd.CFD{
		cfd.MustParse("R([zip] -> [street])"),
		cfd.MustParse("R([CC, AC] -> [city])"),
		cfd.MustParse("R([AC] -> [city])"),
		cfd.MustParse("R([CC=44, AC=20] -> [city=c20])"),
	}
}

// GenerateStreamCSV writes a synthetic rows-row customer file: zip
// functionally determines street and AC determines city except for a
// deterministic 1/50k injected error rate (one street error and one city
// error per 50k-row stripe, at fixed offsets within the stripe), so every
// rule has a small, known-non-zero violation count found only by actually
// scanning everything — even on short smoke files. Group cardinality
// scales as rows/50 distinct zips (capped at 400k), keeping witness
// memory bounded and proportional to data semantics, not file size.
func GenerateStreamCSV(path string, rows int, seed int64) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	rng := rand.New(rand.NewSource(seed))
	zipCard := rows / 50
	if zipCard < 100 {
		zipCard = 100
	}
	if zipCard > 400_000 {
		zipCard = 400_000
	}
	ccs := []string{"01", "44", "86"}
	fmt.Fprintln(w, "CC,AC,phn,name,street,city,zip")
	for i := 0; i < rows; i++ {
		cc := ccs[rng.Intn(len(ccs))]
		ac := rng.Intn(1000)
		zip := rng.Intn(zipCard)
		street := fmt.Sprintf("s%d", zip)
		city := fmt.Sprintf("c%d", ac)
		if i%50_000 == 500 {
			street = fmt.Sprintf("s%d-err", zip)
		}
		if i%50_000 == 900 {
			city = fmt.Sprintf("c%d-err", ac)
		}
		fmt.Fprintf(w, "%s,%d,%07d,n%d,%s,%s,%05d\n", cc, ac, rng.Intn(10_000_000), rng.Intn(1000), street, city, zip)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// heapSampler polls heap-in-use until stopped, recording the peak.
func heapSampler(stop <-chan struct{}, peak *atomic.Uint64) {
	var ms runtime.MemStats
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		runtime.ReadMemStats(&ms)
		for {
			cur := peak.Load()
			if ms.HeapInuse <= cur || peak.CompareAndSwap(cur, ms.HeapInuse) {
				break
			}
		}
		select {
		case <-stop:
			return
		case <-t.C:
		}
	}
}

// StreamScaling generates the synthetic file, verifies the detector
// against the in-memory oracle on a small sibling, then times CheckFile
// at every worker count (median of c.Trials), asserting the heap budget
// on every run. All worker counts must agree on every rule's exact
// violation count and retained violations.
func StreamScaling(c Config, rows int, workers []int) (*StreamCase, error) {
	c = c.Defaults()
	if len(workers) == 0 {
		workers = DefaultParallelWorkers()
	}
	rules := streamRules()
	dir := os.TempDir()

	// Correctness first: on a small sibling of the same distribution the
	// streaming report must equal the in-memory oracle's exactly.
	oracleRows := 100_000
	if oracleRows > rows {
		oracleRows = rows
	}
	opath := filepath.Join(dir, fmt.Sprintf("cfdprop-stream-oracle-%d.csv", oracleRows))
	defer os.Remove(opath)
	if _, err := GenerateStreamCSV(opath, oracleRows, c.Seed); err != nil {
		return nil, fmt.Errorf("bench stream: oracle file: %w", err)
	}
	if err := streamOracleCheck(opath, rules); err != nil {
		return nil, err
	}

	path := filepath.Join(dir, fmt.Sprintf("cfdprop-stream-%d.csv", rows))
	defer os.Remove(path)
	size, err := GenerateStreamCSV(path, rows, c.Seed)
	if err != nil {
		return nil, fmt.Errorf("bench stream: data file: %w", err)
	}

	cs := &StreamCase{
		Name:       fmt.Sprintf("stream/rows=%d", rows),
		Rows:       rows,
		FileBytes:  size,
		Rules:      len(rules),
		HeapBudget: StreamHeapBudget,
		OracleRows: oracleRows,
	}
	var ref *stream.Report
	var serial time.Duration
	for _, w := range workers {
		times := make([]time.Duration, 0, c.Trials)
		var peakMax uint64
		var rep *stream.Report
		for t := 0; t < c.Trials; t++ {
			runtime.GC()
			var peak atomic.Uint64
			stop := make(chan struct{})
			go heapSampler(stop, &peak)
			start := time.Now()
			r, err := stream.CheckFile(path, rules, stream.Options{
				Context:       c.Ctx,
				Parallel:      w,
				MaxViolations: 16,
			})
			el := time.Since(start)
			close(stop)
			if err != nil {
				return nil, fmt.Errorf("bench stream workers=%d: %w", w, err)
			}
			if p := peak.Load(); p > StreamHeapBudget {
				return nil, fmt.Errorf("bench stream workers=%d: heap peak %d exceeds the %d-byte budget", w, p, uint64(StreamHeapBudget))
			} else if p > peakMax {
				peakMax = p
			}
			times = append(times, el)
			rep = r
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		med := times[len(times)/2]
		if ref == nil {
			ref = rep
			serial = med
			for i := range rep.Rules {
				if rep.Rules[i].Err != nil {
					return nil, fmt.Errorf("bench stream: rule %s: %w", rules[i], rep.Rules[i].Err)
				}
				cs.Violations += rep.Rules[i].Count
				cs.Groups += rep.Rules[i].Groups
				cs.Passes += rep.Rules[i].Passes
			}
			if cs.Violations == 0 {
				return nil, fmt.Errorf("bench stream: generator produced no violations; the scan proves nothing")
			}
		} else if err := sameStreamReport(ref, rep); err != nil {
			return nil, fmt.Errorf("bench stream: workers=%d diverged: %w", w, err)
		}
		cs.Points = append(cs.Points, StreamPoint{
			Workers:  w,
			Runtime:  med,
			Speedup:  float64(serial) / float64(med),
			HeapPeak: peakMax,
		})
	}
	cs.MaxRSSKB = maxRSSKB()
	return cs, nil
}

// streamOracleCheck runs the streaming detector and the in-memory oracle
// over the same file and requires identical reports, violation by
// violation.
func streamOracleCheck(path string, rules []*cfd.CFD) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	in, err := stream.LoadInstance(f, path, "R")
	f.Close()
	if err != nil {
		return err
	}
	rep, err := stream.CheckFile(path, rules, stream.Options{Parallel: 3})
	if err != nil {
		return err
	}
	if rep.Rows != in.Len() {
		return fmt.Errorf("bench stream: oracle check: %d rows streamed, %d loaded", rep.Rows, in.Len())
	}
	for i, c := range rules {
		want, err := cfd.Violations(in, c)
		if err != nil {
			return err
		}
		got := rep.Rules[i]
		if got.Err != nil {
			return got.Err
		}
		if got.Count != len(want) || len(got.Violations) != len(want) {
			return fmt.Errorf("bench stream: oracle check: rule %s: %d violations streamed, %d expected", c, got.Count, len(want))
		}
		for k := range want {
			if got.Violations[k] != want[k] {
				return fmt.Errorf("bench stream: oracle check: rule %s violation %d: %+v != %+v", c, k, got.Violations[k], want[k])
			}
		}
	}
	return nil
}

// sameStreamReport requires two runs to agree on every rule's exact count
// and retained violations.
func sameStreamReport(a, b *stream.Report) error {
	if a.Rows != b.Rows || len(a.Rules) != len(b.Rules) {
		return fmt.Errorf("report shape differs")
	}
	for i := range a.Rules {
		ra, rb := a.Rules[i], b.Rules[i]
		if ra.Count != rb.Count || ra.Groups != rb.Groups || ra.Passes != rb.Passes || len(ra.Violations) != len(rb.Violations) {
			return fmt.Errorf("rule %d: count/groups/passes differ", i)
		}
		for k := range ra.Violations {
			if ra.Violations[k] != rb.Violations[k] {
				return fmt.Errorf("rule %d violation %d differs", i, k)
			}
		}
	}
	return nil
}

// PrintStream renders the scaling table.
func PrintStream(w io.Writer, cs *StreamCase) {
	fmt.Fprintf(w, "\n== streaming detection (GOMAXPROCS=%d) ==\n", runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "%s  (%.1f MB, %d rules, %d violations, %d groups, %d passes, oracle-checked at %d rows)\n",
		cs.Name, float64(cs.FileBytes)/(1<<20), cs.Rules, cs.Violations, cs.Groups, cs.Passes, cs.OracleRows)
	fmt.Fprintf(w, "  heap budget %d MiB", cs.HeapBudget>>20)
	if cs.MaxRSSKB > 0 {
		fmt.Fprintf(w, ", process max RSS %d MiB", cs.MaxRSSKB>>10)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  %-8s %12s %8s %12s\n", "workers", "median", "speedup", "heap peak")
	for _, p := range cs.Points {
		fmt.Fprintf(w, "  %-8d %12s %7.2fx %9.1f MB\n", p.Workers, p.Runtime.Round(time.Millisecond), p.Speedup, float64(p.HeapPeak)/(1<<20))
	}
}
