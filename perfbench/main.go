// Command perfbench is cfdprop's benchmark. It runs one workload for a
// fixed time and prints every metric by name with its unit; the last line
// of its output is one JSON object with the keys correct, attempted,
// failed and metrics. See README.md for the workloads, the metrics and the
// layer each per-layer metric belongs to.
//
//	bash perfbench/run.sh --workload cover|serve|stream|all --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records spans around its calls into each layer and reports the
// per-layer metrics instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// endToEnd and perLayer name every metric a run reports, with its unit;
// BENCHMARK.json lists the same names.
var endToEnd = map[string]string{
	"setup_s":        "s",
	"heap_peak_mib":  "MiB",
	"covers_per_s":   "1/s",
	"cover_p50_ms":   "ms",
	"cover_p90_ms":   "ms",
	"requests_per_s": "1/s",
	"check_p50_ms":   "ms",
	"check_p99_ms":   "ms",
	"edit_p50_ms":    "ms",
	"edit_p90_ms":    "ms",
	"rows_per_s":     "1/s",
}

var perLayer = map[string]string{
	"fail_ratio":                      "ratio",
	"trace.overhead_pct":              "%",
	"trace.cover_accounted_ratio":     "ratio",
	"implication.mincover_ms":         "ms",
	"implication.mincover_kept_ratio": "ratio",
	"implication.implies_ms":          "ms",
	"core.tail_ms":                    "ms",
	"core.final_mincover_ms":          "ms",
	"core.cover_size":                 "count",
	"core.coversession_ms":            "ms",
	"core.pairs_carried":              "count/edit",
	"core.pairs_dropped":              "count/edit",
	"propagation.check_ms":            "ms",
	"propagation.pairs_checked":       "count/check",
	"propagation.instantiations":      "count/check",
	"propagation.memo_hit_ratio":      "ratio",
	"daemon.overhead_ms":              "ms",
	"daemon.server_check_p50_ms":      "ms",
	"daemon.server_check_p99_ms":      "ms",
	"daemon.patch_ms":                 "ms",
	"daemon.cache_hit_ratio":          "ratio",
	"daemon.evictions":                "count",
	"daemon.memo_empty_hit_ratio":     "ratio",
	"daemon.shed":                     "count",
	"daemon.panics":                   "count",
	"stream.scan_s":                   "s",
	"stream.single_pass_s":            "s",
	"stream.multipass_s":              "s",
	"stream.groups":                   "count",
	"stream.passes":                   "count",
	"stream.violations":               "count",
}

// setupReps is how many times a run sets its inputs up; setup_s is the
// median.
const setupReps = 3

// sliceCount is how many pieces each phase's timed loop is cut into. The
// pieces of all the run's phases take turns, so each phase's samples are
// spread over the whole run instead of one stretch of it, and a slow spell
// of the host lands on every phase a little rather than on one a lot.
const sliceCount = 5

// phase is one layer-path of the system under load. A workload runs its
// own phase at full size (main) and companion phases at probe size, so
// every run reports every metric; the workload's own phase sets a metric
// first.
type phase interface {
	name() string
	setup() error
	// probe is the timed length of the phase as a companion.
	probe() time.Duration
	// slice runs d more of the untraced timed loop.
	slice(m *meter, main bool, d time.Duration) error
	// finish verifies what the slices did and reports their metrics.
	finish(m *meter, main bool) error
	// traced runs the traced measurement on its own.
	traced(m *meter, main bool) error
	close()
}

// phasesFor lists a workload's phases, its own first.
func phasesFor(workload string, seed int64, dataDir string) ([]phase, error) {
	switch workload {
	case "cover":
		return []phase{&coverPhase{seed: seed}, &servePhase{seed: seed}, &streamPhase{seed: seed, dir: dataDir}}, nil
	case "serve":
		return []phase{&servePhase{seed: seed}, &streamPhase{seed: seed, dir: dataDir}}, nil
	case "stream":
		return []phase{&streamPhase{seed: seed, full: true, dir: dataDir}, &servePhase{seed: seed}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want cover, serve, stream or all)", workload)
}

// result is the last line of the output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// report is the run's provenance file.
type report struct {
	Date       string               `json:"date"`
	Go         string               `json:"go"`
	OSArch     string               `json:"os_arch"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	NumCPU     int                  `json:"num_cpu"`
	Workload   string               `json:"workload"`
	Seed       int64                `json:"seed"`
	Phases     []string             `json:"phases"`
	Seconds    float64              `json:"seconds"`
	Trace      bool                 `json:"trace"`
	Command    string               `json:"command"`
	Notes      []string             `json:"notes"`
	Error      string               `json:"error,omitempty"`
	Result     result               `json:"result"`
	SetupRunsS map[string][]float64 `json:"setup_runs_s,omitempty"`
	// KernelMs is the host-speed kernel's median time; RawMetrics are the
	// end-to-end metrics before scaling to the reference speed.
	KernelMs   float64   `json:"kernel_ms,omitempty"`
	RawMetrics metricSet `json:"raw_metrics,omitempty"`
}

const outDir = ".bench_build"

func main() {
	workload := flag.String("workload", "", "cover, serve, stream, or all (each in turn)")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 20, "length of each timed phase")
	traceFlag := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	flag.Parse()

	if *workload != "all" {
		res, err := runWorkload(*workload, *seed, *seconds, *traceFlag == 1)
		finish(res, err)
		return
	}
	all := result{Correct: true, Metrics: metricSet{}}
	var firstErr error
	for _, w := range []string{"cover", "serve", "stream"} {
		res, err := runWorkload(w, *seed, *seconds, *traceFlag == 1)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", w, err)
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for name, v := range res.Metrics {
			all.Metrics[w+"."+name] = v
		}
	}
	finish(all, firstErr)
}

// finish prints the result line and sets the exit status.
func finish(res result, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		res.Correct = false
		res.Metrics = metricSet{}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if err != nil {
		os.Exit(1)
	}
}

// runWorkload sets the workload up setupReps times, runs its phases and
// checks that every metric it owes was reported.
func runWorkload(workload string, seed int64, seconds float64, trace bool) (result, error) {
	phases, err := phasesFor(workload, seed, filepath.Join(outDir, "data"))
	if err != nil {
		return result{}, err
	}
	m := &meter{trace: trace, seconds: time.Duration(seconds * float64(time.Second)), e2e: metricSet{}, layer: metricSet{}}
	if trace {
		m.tr = newTracer()
	}
	rep := report{
		Date: time.Now().UTC().Format(time.RFC3339), Go: runtime.Version(),
		OSArch: runtime.GOOS + "/" + runtime.GOARCH, GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		Command: fmt.Sprintf("bash perfbench/run.sh --workload %s --seed %d --seconds %g --trace %d", workload, seed, seconds, map[bool]int{false: 0, true: 1}[trace]),
	}
	for i, p := range phases {
		rep.Phases = append(rep.Phases, fmt.Sprintf("%s(%s, seed %d)", p.name(), map[bool]string{true: "own", false: "companion"}[i == 0], seed))
	}
	fmt.Printf("# perfbench %s | %s %s GOMAXPROCS=%d NumCPU=%d | %s\n", rep.Date, rep.Go, rep.OSArch, rep.GOMAXPROCS, rep.NumCPU, rep.Command)

	defer func() {
		for _, p := range phases {
			p.close()
		}
	}()
	err = runPhases(m, phases, &rep)
	res := result{Correct: err == nil, Attempted: m.attempted.Load(), Failed: m.failed.Load()}
	if err == nil {
		res.Metrics, err = owed(m, trace)
	}
	if err == nil {
		res.Metrics.printTable(os.Stdout)
	} else {
		rep.Error = err.Error()
	}
	rep.Notes = m.notes
	rep.Result = res
	name := fmt.Sprintf("%s-seed%d-trace%t", workload, seed, trace)
	if werr := writeJSON(filepath.Join(outDir, "reports", name+".json"), rep); werr != nil && err == nil {
		err = werr
	}
	if trace {
		if werr := m.tr.write(filepath.Join(outDir, "traces", name+".json")); werr != nil && err == nil {
			err = werr
		}
	}
	return res, err
}

// runPhases sets each phase up setupReps times (setup_s sums the phases'
// median set-up times), then runs the phases' timed slices in turn and
// finishes each. A traced run measures each phase on its own instead.
func runPhases(m *meter, phases []phase, rep *report) error {
	reps := setupReps
	if m.trace {
		reps = 1 // setup_s is an end-to-end metric
	}
	rep.SetupRunsS = make(map[string][]float64)
	setup := 0.0
	var kernelMs []float64 // the host-speed kernel's times, one before each set-up and slice
	for _, p := range phases {
		var times []float64
		for r := 0; r < reps; r++ {
			kernelMs = append(kernelMs, kernel())
			t := time.Now()
			if err := p.setup(); err != nil {
				return fmt.Errorf("%s setup: %w", p.name(), err)
			}
			times = append(times, time.Since(t).Seconds())
		}
		rep.SetupRunsS[p.name()] = times
		setup += median(times)
	}
	m.e2e.put("setup_s", "s", setup)
	runtime.GC() // start the timed part from a collected heap
	if m.trace {
		for i, p := range phases {
			if err := p.traced(m, i == 0); err != nil {
				return err
			}
		}
		return nil
	}
	heap := startHeapSampler()
	for s := 0; s < sliceCount; s++ {
		for i, p := range phases {
			kernelMs = append(kernelMs, kernel())
			d := p.probe()
			if i == 0 {
				d = m.seconds
			}
			if err := p.slice(m, i == 0, d/sliceCount); err != nil {
				heap.Stop()
				return err
			}
		}
	}
	m.e2e.put("heap_peak_mib", "MiB", heap.Stop())
	for i, p := range phases {
		if err := p.finish(m, i == 0); err != nil {
			return err
		}
	}
	rep.KernelMs = median(kernelMs)
	rep.RawMetrics = m.e2e
	m.e2e = atRefSpeed(m.e2e, kernelMs)
	return nil
}

// owed returns exactly the metrics of the run's kind, failing if any is
// missing or unlisted.
func owed(m *meter, trace bool) (metricSet, error) {
	want, got := endToEnd, m.e2e
	if trace {
		want, got = perLayer, m.layer
		got.put("fail_ratio", "ratio", ratio(float64(m.failed.Load()), float64(m.attempted.Load())))
	}
	out := metricSet{}
	for name, unit := range want {
		v, ok := got[name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
		if v.Unit != unit {
			return nil, fmt.Errorf("metric %s has unit %s, want %s", name, v.Unit, unit)
		}
		out[name] = v
	}
	return out, nil
}

func (s metricSet) printTable(w *os.File) {
	names := make([]string, 0, len(s))
	for n := range s {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %14.4f %s\n", n, s[n].Value, s[n].Unit)
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
