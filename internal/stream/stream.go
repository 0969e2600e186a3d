// Package stream is the bounded-memory streaming violation detector: the
// data-cleaning application of CFDs (Fan et al., §1) rebuilt as lazy,
// chunked relational-algebra passes so that cfdcheck can validate files of
// tens of millions of tuples within a fixed memory budget.
//
// The in-memory oracle (cfd.Violations over a rel.Instance) materializes
// the whole file; this package never does. A chunked CSV scanner feeds a
// per-CFD pipeline that
//
//   - filters tuples matching the CFD's LHS pattern (σ),
//   - projects the X- and Y-attributes (π) and shards each tuple by a
//     64-bit hash of its X-projection across Options.Parallel workers,
//   - keeps one constant-size witness per group — the first tuple's
//     Y-projection plus its authoritative 1-based file line — so a
//     conflicting tuple is detected on arrival and memory stays
//     O(distinct groups), not O(rows).
//
// Reported violations are identical to the oracle's, in the oracle's
// order: cfd.Violations reports each group's conflicts against the group's
// first tuple in file order, which is exactly the streaming witness. The
// differential suite in stream_test.go enforces this equivalence.
//
// When a rule's distinct-group count exceeds Options.MaxGroups (adversarial
// cardinality: an LHS that is nearly a key), one pass cannot hold its
// witnesses, so Check runs in passes over hash partitions of each rule's
// group space. The first pass gives every rule the whole space; a rule
// that overflows in a pass discards that pass's results and queues the two
// halves of its partition (one more hash bit). Each later pass re-reads
// the input once and runs the next queued partition of every rule that
// has one, through the same pipeline, so the rules that overflow share
// their re-reads. Memory stays bounded at the price of extra passes;
// Report.Rules[i].Passes records how many passes a rule took part in.
//
// Line numbers are authoritative: the scanner records each row's real
// 1-based CSV line via csv.Reader.FieldPos, so the header and quoted
// multi-line fields are accounted for, and the Line1/Line2 fields of every
// reported cfd.Violation agree with the file a user opens in an editor.
package stream

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"

	"cfdprop/internal/cfd"
	"cfdprop/internal/rel"
)

// Options configure a streaming check.
type Options struct {
	// Context, when non-nil, bounds the run: cancellation or deadline
	// expiry aborts the scan with the context's error (cfdcheck maps it to
	// the shared exit-status-3 stop contract).
	Context context.Context

	// Relation names the relation the CFDs are defined on (default "R");
	// it becomes the name of the header-derived schema.
	Relation string

	// Parallel is the worker count groups are sharded across (0 =
	// GOMAXPROCS, 1 = serial). Results are identical at every count.
	Parallel int

	// ChunkSize is the number of CSV rows per scanner chunk (default
	// 4096). It trades pipeline latency against per-chunk overhead; the
	// memory bound is ChunkSize-proportional only for in-flight chunks.
	ChunkSize int

	// MaxGroups caps the witnesses retained per rule in one pass before
	// that rule is split into hash partitions and re-read (default
	// 1 << 20). Negative disables the cap (single pass, unbounded
	// witnesses, like the oracle).
	MaxGroups int

	// MaxViolations caps the violations retained per rule; the Count
	// stays exact. 0 keeps every violation (the oracle's behavior).
	MaxViolations int
}

func (o Options) withDefaults() Options {
	if o.Context == nil {
		o.Context = context.Background()
	}
	if o.Relation == "" {
		o.Relation = "R"
	}
	if o.Parallel == 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	if o.Parallel < 1 {
		o.Parallel = 1
	}
	if o.ChunkSize <= 0 {
		o.ChunkSize = 4096
	}
	if o.MaxGroups == 0 {
		o.MaxGroups = 1 << 20
	}
	return o
}

// RuleReport is one rule's outcome.
type RuleReport struct {
	CFD *cfd.CFD
	// Err is a schema error (the rule names an attribute the header
	// lacks). Every rule is evaluated; an Err on one rule never hides the
	// verdicts of the others.
	Err error
	// Count is the exact total number of violations, even when Violations
	// retains fewer (Options.MaxViolations).
	Count int
	// Violations holds the retained violations in the oracle's order
	// (file order of the second tuple; within one tuple, RHS-pattern
	// clashes before group conflicts, each in RHS-attribute order). T1/T2
	// are data-row ordinals and Line1/Line2 authoritative file lines,
	// exactly as cfd.Violations reports them on a provenance-tracked
	// instance.
	Violations []cfd.Violation
	// Groups is the number of distinct witness groups retained.
	Groups int
	// Passes is the number of passes over the input this rule took part
	// in: 1 when its groups fit MaxGroups, more when it was split into
	// hash partitions.
	Passes int
}

// Report is the outcome of a streaming check.
type Report struct {
	Schema *rel.Schema
	Rows   int // data rows scanned (header excluded)
	Rules  []RuleReport
}

// CheckFile streams path against the rules. The file is re-read once per
// later pass when a rule overflows Options.MaxGroups.
func CheckFile(path string, rules []*cfd.CFD, opts Options) (*Report, error) {
	return Check(func() (io.ReadCloser, error) { return os.Open(path) }, path, rules, opts)
}

// Check streams the input produced by open against the rules, in passes.
// The first pass runs every rule over the whole group-hash space; it runs
// even with no rules, since it validates the CSV and counts Report.Rows.
// A rule whose groups overflow Options.MaxGroups in a pass discards that
// pass's violations and queues the two halves of its partition, breadth
// first. Each later pass runs the next queued partition of every rule
// that has one, and stops reading early once all of them have overflowed.
// open is called once per pass.
func Check(open func() (io.ReadCloser, error), name string, rules []*cfd.CFD, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	src, cr, schema, err := openInput(open, name, opts.Relation)
	if err != nil {
		return nil, err
	}
	compiled := compile(rules, schema)
	rep := &Report{Schema: schema, Rules: make([]RuleReport, len(rules))}
	var jobs []*job
	for ri := range rules {
		rep.Rules[ri].CFD, rep.Rules[ri].Err = rules[ri], compiled[ri].err
		if compiled[ri].err == nil {
			jobs = append(jobs, &job{rule: ri, r: &compiled[ri]})
		}
	}
	queues := make([][]partition, len(rules))
	bufs := make([][][]vio, len(rules))
	for first := true; ; first = false {
		rows, err := runPass(cr, name, jobs, first, opts)
		src.Close()
		if err != nil {
			return nil, err
		}
		if first {
			rep.Rows = rows
		}
		for _, j := range jobs {
			rr := &rep.Rules[j.rule]
			rr.Passes++
			if j.overflow.Load() {
				lo, hi := j.part.halves()
				queues[j.rule] = append(queues[j.rule], lo, hi)
				continue
			}
			rr.Count += j.count
			rr.Groups += int(j.groups.Load())
			bufs[j.rule] = append(bufs[j.rule], j.bufs...)
		}
		jobs = nil
		for ri, q := range queues {
			if len(q) == 0 {
				continue
			}
			p := q[0]
			queues[ri] = q[1:]
			if p.bits > maxPartitionBits {
				return nil, fmt.Errorf("stream: %s: rule %s overflows the group budget (%d) even at 2^%d hash partitions",
					name, compiled[ri].c, opts.MaxGroups, maxPartitionBits)
			}
			jobs = append(jobs, &job{rule: ri, r: &compiled[ri], part: p})
		}
		if len(jobs) == 0 {
			break
		}
		if src, cr, _, err = openInput(open, name, opts.Relation); err != nil {
			return nil, err
		}
	}
	for ri := range rep.Rules {
		if rep.Rules[ri].Err == nil {
			rep.Rules[ri].Violations = mergeVios(bufs[ri], opts.MaxViolations)
		}
	}
	return rep, nil
}

// A partition is the part of a rule's group-hash space a pass keeps
// witnesses for: the groups whose hash has mask in its low bits bits.
// Every group falls in exactly one partition that fits the budget, and
// only that partition's pass keeps the single-tuple violations of the
// group's tuples, so no violation is duplicated or lost. A partition's
// group count halves in expectation per added bit; a pathological hash
// pile-up is cut off at 32 bits with an explicit error rather than an
// unbounded pass count.
type partition struct {
	bits uint
	mask uint64
}

const maxPartitionBits = 32

// halves splits p on its next hash bit.
func (p partition) halves() (partition, partition) {
	return partition{bits: p.bits + 1, mask: p.mask}, partition{bits: p.bits + 1, mask: p.mask | 1<<p.bits}
}

// compiledRule is one rule resolved against the header schema.
type compiledRule struct {
	c        *cfd.CFD
	err      error // schema error; the rule contributes Err only
	equality bool
	ia, ib   int // equality-CFD column indexes
	lhsIdx   []int
	rhsIdx   []int
}

// compile resolves every rule against the schema, mirroring the oracle's
// error text so differential tests can compare errors verbatim.
func compile(rules []*cfd.CFD, schema *rel.Schema) []compiledRule {
	out := make([]compiledRule, len(rules))
	for ri, c := range rules {
		cr := compiledRule{c: c, equality: c.Equality}
		if c.Equality {
			a, b := c.LHS[0].Attr, c.RHS[0].Attr
			ia, ok := schema.Index(a)
			if !ok {
				cr.err = fmt.Errorf("cfd: %s: instance schema %s lacks attribute %q", c, schema.Name, a)
				out[ri] = cr
				continue
			}
			ib, ok := schema.Index(b)
			if !ok {
				cr.err = fmt.Errorf("cfd: %s: instance schema %s lacks attribute %q", c, schema.Name, b)
				out[ri] = cr
				continue
			}
			cr.ia, cr.ib = ia, ib
			out[ri] = cr
			continue
		}
		cr.lhsIdx = make([]int, len(c.LHS))
		for i, it := range c.LHS {
			j, ok := schema.Index(it.Attr)
			if !ok {
				cr.err = fmt.Errorf("cfd: %s: instance schema %s lacks attribute %q", c, schema.Name, it.Attr)
				break
			}
			cr.lhsIdx[i] = j
		}
		if cr.err == nil {
			cr.rhsIdx = make([]int, len(c.RHS))
			for i, it := range c.RHS {
				j, ok := schema.Index(it.Attr)
				if !ok {
					cr.err = fmt.Errorf("cfd: %s: instance schema %s lacks attribute %q", c, schema.Name, it.Attr)
					break
				}
				cr.rhsIdx[i] = j
			}
		}
		out[ri] = cr
	}
	return out
}

// vio is a violation tagged with its oracle-order sort key: data-row
// ordinal of the arriving tuple, then phase (0 = single-tuple RHS-pattern
// clash, 1 = group conflict — the oracle emits pattern clashes first),
// then RHS-attribute position.
type vio struct {
	ord, phase, attr int
	v                cfd.Violation
}

// vioLess orders violations exactly as the in-memory oracle emits them.
func vioLess(a, b vio) bool {
	if a.ord != b.ord {
		return a.ord < b.ord
	}
	if a.phase != b.phase {
		return a.phase < b.phase
	}
	return a.attr < b.attr
}

// mergeVios sorts buffered violations into oracle order and applies the
// retention cap. Each buffer holds the first violations, in oracle order,
// of the part of the input it saw, so the cut keeps the oracle's prefix.
func mergeVios(bufs [][]vio, cap int) []cfd.Violation {
	var all []vio
	for _, b := range bufs {
		all = append(all, b...)
	}
	sort.Slice(all, func(i, j int) bool { return vioLess(all[i], all[j]) })
	if cap > 0 && len(all) > cap {
		all = all[:cap]
	}
	out := make([]cfd.Violation, len(all))
	for i := range all {
		out[i] = all[i].v
	}
	return out
}

// fnv64a hashes a length-prefixed projection of vals at idx — the group
// key. The same bytes feed the witness-map key, so two tuples share a
// group iff their X-projections are equal.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashKey(key string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * fnvPrime
	}
	return h
}

// groupKey builds the canonical X-projection key (length-prefixed, so
// distinct projections never collide), appending into buf to amortize
// allocation; the returned string is freshly allocated.
func groupKey(buf []byte, vals []string, idx []int) (string, []byte) {
	buf = buf[:0]
	for _, j := range idx {
		buf = appendUint(buf, uint64(len(vals[j])))
		buf = append(buf, ':')
		buf = append(buf, vals[j]...)
		buf = append(buf, ';')
	}
	return string(buf), buf
}

func appendUint(b []byte, v uint64) []byte {
	if v == 0 {
		return append(b, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}
