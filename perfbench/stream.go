package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"cfdprop/internal/bench"
	"cfdprop/internal/cfd"
	"cfdprop/internal/stream"
)

// The stream phase: stream.CheckFile on a seeded CSV with the
// bench.GenerateStreamCSV distribution, against the four rules that share
// one pass plus a near-key rule in the style of Fig. 1, whose distinct
// groups (about one per row) overflow the group budget and take the
// multipass fallback.
//
// The budget is half the file's rows rather than the default 1<<20, so a
// 300k-row file takes the fallback that a 2M-row file takes at the default.
// The smaller file lets a 20-second phase time about ten checks, so
// rows_per_s is a median of many, and keeps each check's heap small enough
// that page faults and a neighbour's memory traffic move it less. The
// oracle sibling file has a twentieth of the rows.
const (
	streamRowsMain      = 300_000
	streamRowsProbe     = 100_000
	streamProbeDuration = 6 * time.Second // a companion stream phase's timed loop
)

// options are the check's: default but for the group budget.
func (p *streamPhase) options() stream.Options {
	return stream.Options{MaxGroups: p.rows() / 2}
}

// singlePassRules share the one scan.
func singlePassRules() []*cfd.CFD {
	return []*cfd.CFD{
		cfd.MustParse("R([zip] -> [street])"),
		cfd.MustParse("R([CC, AC] -> [city])"),
		cfd.MustParse("R([AC] -> [city])"),
		cfd.MustParse("R([CC=44, AC=20] -> [city=c20])"),
	}
}

// nearKeyRule's LHS is nearly a key of the generated data.
func nearKeyRule() *cfd.CFD { return cfd.MustParse("R([CC, AC, phn] -> [street, city, zip])") }

func allRules() []*cfd.CFD { return append(singlePassRules(), nearKeyRule()) }

type streamPhase struct {
	seed   int64
	full   bool
	dir    string
	path   string
	oracle string

	// What the timed slices have measured so far.
	rates []float64
	ref   *reportKey
}

func (p *streamPhase) name() string { return "stream" }

func (p *streamPhase) rows() int {
	if p.full {
		return streamRowsMain
	}
	return streamRowsProbe
}

func (p *streamPhase) setup() error {
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return err
	}
	tag := "probe"
	if p.full {
		tag = "main"
	}
	p.rates, p.ref = nil, nil
	p.path = filepath.Join(p.dir, fmt.Sprintf("stream-%s-%d.csv", tag, p.seed))
	p.oracle = filepath.Join(p.dir, fmt.Sprintf("stream-%s-%d-oracle.csv", tag, p.seed))
	if _, err := bench.GenerateStreamCSV(p.path, p.rows(), p.seed); err != nil {
		return err
	}
	_, err := bench.GenerateStreamCSV(p.oracle, p.rows()/20, p.seed^0x0dac1e)
	return err
}

func (p *streamPhase) close() {
	for _, f := range []string{p.path, p.oracle} {
		if f != "" {
			os.Remove(f)
		}
	}
}

// reportKey is a report's comparable content: rows and, per rule, the
// count, groups, passes and retained violations.
type reportKey struct {
	rows  int
	rules []ruleKey
}

type ruleKey struct {
	count, groups, passes int
	vios                  []cfd.Violation
}

func keyOf(r *stream.Report) (reportKey, error) {
	k := reportKey{rows: r.Rows}
	for _, rr := range r.Rules {
		if rr.Err != nil {
			return k, rr.Err
		}
		k.rules = append(k.rules, ruleKey{rr.Count, rr.Groups, rr.Passes, rr.Violations})
	}
	return k, nil
}

func (p *streamPhase) probe() time.Duration { return streamProbeDuration }

// slice checks the file with every rule until d has passed, at least once,
// requiring every report to be the same, and keeps each check's rows per
// second.
func (p *streamPhase) slice(m *meter, main bool, d time.Duration) error {
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < d; n++ {
		// Each check starts from a collected heap, as a fresh cfdcheck
		// process would, not under the previous check's witness maps.
		runtime.GC()
		t := time.Now()
		rep, err := stream.CheckFile(p.path, allRules(), p.options())
		el := time.Since(t)
		m.op(err)
		if err != nil {
			return err
		}
		k, err := keyOf(rep)
		if err != nil {
			return err
		}
		if p.ref == nil {
			p.ref = &k
		} else if !reflect.DeepEqual(*p.ref, k) {
			return fmt.Errorf("stream: two checks of the same file disagree")
		}
		p.rates = append(p.rates, float64(rep.Rows)/el.Seconds())
	}
	return nil
}

// finish reports the median rate over at least three checks (a companion
// phase: five) and verifies the reports.
func (p *streamPhase) finish(m *meter, main bool) error {
	least := 3
	if !main {
		least = 5
	}
	for len(p.rates) < least {
		if err := p.slice(m, main, 0); err != nil {
			return err
		}
	}
	m.e2e.put("rows_per_s", "1/s", median(p.rates))
	m.note("stream(%s): %d checks of %d rows × %d rules", map[bool]string{true: "main", false: "companion"}[main], len(p.rates), p.ref.rows, len(p.ref.rules))
	if p.ref.rows != p.rows() {
		return fmt.Errorf("stream: %d rows checked, %d generated", p.ref.rows, p.rows())
	}
	if err := p.verifyOracle(); err != nil {
		return err
	}
	if main {
		return streamGuards(*p.ref)
	}
	return nil
}

func (p *streamPhase) traced(m *meter, main bool) error {
	if err := p.verifyOracle(); err != nil {
		return err
	}
	return p.runTraced(m)
}

// streamGuards fails a run in which multipass never fired or nothing was
// found.
func streamGuards(k reportKey) error {
	passes, vios := 0, 0
	for _, r := range k.rules {
		passes += r.passes
		vios += r.count
	}
	if passes <= len(k.rules) {
		return fmt.Errorf("stream: %d passes for %d rules; the multipass fallback never fired", passes, len(k.rules))
	}
	if vios == 0 {
		return fmt.Errorf("stream: no violations found; the scan proves nothing")
	}
	return nil
}

// verifyOracle requires the streaming report on the seeded sibling file to
// equal the in-memory oracle (stream.LoadInstance + cfd.Violations), both
// at default options and with a group budget small enough that the
// near-key rule takes the multipass fallback.
func (p *streamPhase) verifyOracle() error {
	f, err := os.Open(p.oracle)
	if err != nil {
		return err
	}
	in, err := stream.LoadInstance(f, p.oracle, "R")
	f.Close()
	if err != nil {
		return err
	}
	rules := allRules()
	// A third of the sibling's rows: the near-key rule's ~one group per row
	// then splits into four partitions.
	for _, maxGroups := range []int{0, in.Len() / 3} {
		rep, err := stream.CheckFile(p.oracle, rules, stream.Options{MaxGroups: maxGroups})
		if err != nil {
			return err
		}
		if rep.Rows != in.Len() {
			return fmt.Errorf("stream: oracle: %d rows streamed, %d loaded", rep.Rows, in.Len())
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
			same := len(got.Violations) == len(want) && (len(want) == 0 || reflect.DeepEqual(got.Violations, want))
			if got.Count != len(want) || !same {
				return fmt.Errorf("stream: oracle: rule %s (MaxGroups %d): %d violations streamed, %d expected", c, maxGroups, got.Count, len(want))
			}
		}
		if maxGroups > 0 && rep.Rules[len(rules)-1].Passes < 2 {
			return fmt.Errorf("stream: oracle: the near-key rule did not take the multipass fallback")
		}
	}
	return nil
}

// runTraced times the full check untraced and traced, then the split:
// the scan alone (no rules), the shared single pass, and the near-key
// rule's multipass alone.
func (p *streamPhase) runTraced(m *meter) error {
	check := func(name, detail string, rules []*cfd.CFD) (*stream.Report, time.Duration, error) {
		sp := m.tr.begin(name, detail, 0, 0)
		t := time.Now()
		rep, err := stream.CheckFile(p.path, rules, p.options())
		el := time.Since(t)
		sp.end()
		m.op(err)
		return rep, el, err
	}
	t := time.Now()
	if _, err := stream.CheckFile(p.path, allRules(), p.options()); err != nil {
		return err
	}
	plain := time.Since(t)
	full, traced, err := check("stream.CheckFile", "all rules", allRules())
	if err != nil {
		return err
	}
	_, scan, err := check("stream.CheckFile", "no rules (scan)", nil)
	if err != nil {
		return err
	}
	_, single, err := check("stream.CheckFile", "single-pass rules", singlePassRules())
	if err != nil {
		return err
	}
	_, multi, err := check("stream.CheckFile", "near-key rule", []*cfd.CFD{nearKeyRule()})
	if err != nil {
		return err
	}
	k, err := keyOf(full)
	if err != nil {
		return err
	}
	if p.full {
		if err := streamGuards(k); err != nil {
			return err
		}
	}
	groups, passes, vios := 0, 0, 0
	for _, r := range k.rules {
		groups += r.groups
		passes += r.passes
		vios += r.count
	}
	m.layer.put("trace.overhead_pct", "%", 100*(ratio(float64(traced), float64(plain))-1))
	m.layer.put("stream.scan_s", "s", scan.Seconds())
	m.layer.put("stream.single_pass_s", "s", single.Seconds())
	m.layer.put("stream.multipass_s", "s", multi.Seconds())
	m.layer.put("stream.groups", "count", float64(groups))
	m.layer.put("stream.passes", "count", float64(passes))
	m.layer.put("stream.violations", "count", float64(vios))
	return nil
}
