package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ---- metrics ----

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics. The first phase to set a name wins,
// so a workload's own phase takes precedence over its companion phases.
type metricSet map[string]metric

func (m metricSet) put(name, unit string, v float64) {
	if _, ok := m[name]; !ok {
		m[name] = metric{Value: v, Unit: unit}
	}
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// samples is a latency sample set.
type samples []time.Duration

// quantile is the nearest-rank q-quantile: the smallest sample with at
// least q·n samples at or below it.
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	k := int(math.Ceil(q*float64(len(c)))) - 1
	if k < 0 {
		k = 0
	}
	return c[k]
}

// minSamples is the smallest sample count with at least ten samples
// beyond the q-quantile.
func minSamples(q float64) int { return int(math.Ceil(10 / (1 - q))) }

// enough reports whether s supports the q-quantile with ten samples
// beyond it.
func (s samples) enough(q float64) bool { return len(s) >= minSamples(q) }

// profile renders the deciles and p99 in ms, for the report's notes: a
// percentile that falls in a gap between two modes shows here.
func (s samples) profile() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d", len(s))
	for _, q := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99} {
		fmt.Fprintf(&b, " p%g=%.2f", 100*q, ms(s.quantile(q)))
	}
	return b.String()
}

// median of float values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapSampler keeps the peak live heap between start and stop: the bytes
// the garbage collector marked live, read after every GC cycle. Unlike
// heap-in-use polled on a timer, it does not depend on where a poll fell
// in the GC cycle, so repeated runs read alike.
type heapSampler struct {
	peak    atomic.Uint64
	stopped atomic.Bool
}

// gcSentinel is garbage from birth; its finalizer runs after the GC cycle
// that finds it and arms the next one.
type gcSentinel struct{ h *heapSampler }

func startHeapSampler() *heapSampler {
	h := &heapSampler{}
	h.arm()
	return h
}

func (h *heapSampler) arm() {
	runtime.SetFinalizer(&gcSentinel{h}, func(s *gcSentinel) {
		s.h.read()
		if !s.h.stopped.Load() {
			s.h.arm()
		}
	})
}

func (h *heapSampler) read() {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	v := sample[0].Value.Uint64()
	for old := h.peak.Load(); v > old && !h.peak.CompareAndSwap(old, v); old = h.peak.Load() {
	}
}

// ---- host speed ----

// The host is a few vCPUs shared with other tenants, and its speed drifts
// by tens of percent over minutes, which moves every time of a run
// together. So a run also times a fixed kernel, which shares no code with
// cfdprop, before each set-up and each slice, and reports its end-to-end
// times and rates at the reference speed: scaled by the kernel's median
// time in the run over refKernelMs, its median on the reference host (a
// 2-vCPU KVM guest on a Xeon Sapphire Rapids). A change to cfdprop moves
// the scaled values as it moves the raw ones; the report keeps both.
const refKernelMs = 3.6

var (
	kernelTable [1 << 16]uint64
	kernelKeys  [1 << 15]uint64
	kernelSink  uint64
)

// kernel times open-addressing inserts and a sort over a xorshift
// sequence, in fixed arrays so that it allocates nothing and the
// program's heap cannot make it wait on the garbage collector.
func kernel() float64 {
	t := time.Now()
	clear(kernelTable[:])
	x := uint64(88172645463325252)
	for i := range kernelKeys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h := (x * 0x9e3779b97f4a7c15) >> 48
		for kernelTable[h] != 0 {
			h = (h + 1) & (uint64(len(kernelTable)) - 1)
		}
		kernelTable[h] = x
		kernelKeys[i] = x
	}
	slices.Sort(kernelKeys[:])
	kernelSink += kernelKeys[len(kernelKeys)/2]
	return ms(time.Since(t))
}

// atRefSpeed returns the end-to-end metrics scaled to the reference
// speed, given the kernel's times in the run.
func atRefSpeed(raw metricSet, kernelMs []float64) metricSet {
	f := refKernelMs / median(kernelMs)
	out := metricSet{}
	for name, v := range raw {
		switch v.Unit {
		case "ms", "s":
			v.Value *= f
		case "1/s":
			v.Value /= f
		}
		out[name] = v
	}
	return out
}

// gcNote renders the process's GC cycles and GC CPU time so far.
func gcNote() string {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/user:cpu-seconds"}}
	metrics.Read(s)
	return fmt.Sprintf("%d GC cycles, %.2f GC cpu-s, %.2f user cpu-s", s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Float64())
}

// Stop ends sampling and returns the peak in MiB.
func (h *heapSampler) Stop() float64 {
	h.stopped.Store(true)
	h.read()
	return float64(h.peak.Load()) / (1 << 20)
}

// ---- tracing ----

// span is one timed call into a layer: name is "<module>.<Func>", times are
// offsets from the tracer's start, parent is 0 for a root span and req
// groups the spans of one serve request (0 elsewhere).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span; end closes it.
type spanRef struct {
	t *tracer
	s span
}

// begin opens a span under parent (0 = root).
func (t *tracer) begin(name, detail string, parent, req int64) *spanRef {
	if t == nil {
		return nil
	}
	return &spanRef{t: t, s: span{
		ID: t.next.Add(1), Parent: parent, Req: req, Name: name, Detail: detail,
		Start: int64(time.Since(t.t0)),
	}}
}

// id is the span's identifier, 0 for a nil span (tracing off).
func (r *spanRef) id() int64 {
	if r == nil {
		return 0
	}
	return r.s.ID
}

// end closes the span and returns its duration.
func (r *spanRef) end() time.Duration {
	if r == nil {
		return 0
	}
	r.s.End = int64(time.Since(r.t.t0))
	r.t.mu.Lock()
	r.t.spans = append(r.t.spans, r.s)
	r.t.mu.Unlock()
	return r.s.dur()
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (children of a parallel fan-out may overlap;
// their union is subtracted once).
func (t *tracer) selfTimes() map[int64]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(t.spans))
	for _, s := range t.spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		var covered, hi int64 = 0, s.Start
		for _, k := range ks {
			lo, end := max(k.Start, hi), min(k.End, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// selfByName sums self time per span name.
func (t *tracer) selfByName() map[string]time.Duration {
	self := t.selfTimes()
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// write stores the spans and their per-name self times as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	self := make(map[string]float64)
	for name, d := range t.selfByName() {
		self[name] = ms(d)
	}
	data, err := json.Marshal(struct {
		SelfMs map[string]float64 `json:"self_ms_by_name"`
		Spans  []span             `json:"spans"`
	}{self, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ---- run accounting ----

// meter is what every phase reports into.
type meter struct {
	trace     bool
	tr        *tracer // nil when trace is off
	seconds   time.Duration
	e2e       metricSet
	layer     metricSet
	attempted atomic.Int64
	failed    atomic.Int64
	notes     []string
}

// op records one attempted operation and whether it failed.
func (m *meter) op(err error) {
	m.attempted.Add(1)
	if err != nil {
		if m.failed.Add(1) <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: failed op: %v\n", err)
		}
	}
}

// note adds a line to the run's provenance (sample counts, sizes).
func (m *meter) note(format string, args ...any) {
	m.notes = append(m.notes, fmt.Sprintf(format, args...))
}
