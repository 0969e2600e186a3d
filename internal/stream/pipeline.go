package stream

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"cfdprop/internal/cfd"
	"cfdprop/internal/faultinject"
	"cfdprop/internal/rel"
)

// One pass. Topology:
//
//	reader ──chunks──▶ mappers(W) ──mapped──▶ collector ──▶ reducers(W)
//
// The reader produces ChunkSize-row chunks tagged with a sequence number;
// mappers run σ (LHS filter) and π (X/Y projection) per job, drop groups
// outside the job's hash partition, emit single-tuple violations directly,
// and bucket group records by the hash bits above the partition's, mod W;
// the collector restores sequence order and fans each mapped chunk to
// every reducer; reducer w owns shard w of every job's witness map, so
// group state is never shared and each group's tuples arrive in file
// order. Everything downstream of the reader sorts by the (ord, phase,
// attr) key afterwards, so scheduling never shows in the output.

type row struct {
	ord  int // 0-based data-row ordinal
	line int // 1-based CSV file line (header-aware, quote-aware)
	vals []string
}

type chunk struct {
	seq  int
	rows []row
}

// rec is one LHS-matching tuple's contribution to a group: the X-key, the
// Y-projection, and its provenance. Constant size per tuple.
type rec struct {
	ord  int
	line int
	key  string
	y    []string
}

type mappedJob struct {
	shards [][]rec // indexed by shard; nil when the job emitted nothing
	direct []vio   // phase-0 violations (pattern clashes, equality)
}

type mapped struct {
	seq  int
	jobs []mappedJob
}

// witness is the constant-size state kept per group: the first tuple's
// identity and Y-projection.
type witness struct {
	ord  int
	line int
	y    []string
}

// job is one rule's share of a pass: the partition of its group-hash space
// it keeps witnesses for, its cross-worker state during the pass, and what
// the pass found.
type job struct {
	rule int
	r    *compiledRule
	part partition

	groups   atomic.Int64 // witnesses retained across all shards
	overflow atomic.Bool  // exceeded MaxGroups; the partition is split

	count int     // violations found
	bufs  [][]vio // retained violations: the collector's, then each reducer's
}

// readHeader reads the header row and builds the schema, mirroring the
// in-memory loader's errors.
func readHeader(cr *csv.Reader, name, relation string) (*rel.Schema, error) {
	hdr, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("%s: missing header row", name)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	attrs := make([]rel.Attribute, len(hdr))
	for i, n := range hdr {
		attrs[i] = rel.Attribute{Name: strings.TrimSpace(n), Domain: rel.Infinite()}
	}
	return rel.NewSchema(relation, attrs...)
}

func newCSVReader(src io.Reader) *csv.Reader {
	cr := csv.NewReader(src)
	cr.TrimLeadingSpace = true
	cr.ReuseRecord = true
	return cr
}

// LoadInstance reads a whole CSV into a provenance-tracked rel.Instance:
// header row as attribute names, every value in the infinite domain, each
// tuple carrying its authoritative 1-based file line (header-aware and
// quote-aware, via csv.Reader.FieldPos). It loads the in-memory oracle
// (cfd.Violations over the instance) that the tests, perfbench and
// benchfig check the streaming detector against, so oracle violations
// carry the same Line1/Line2 the streaming detector reports.
func LoadInstance(src io.Reader, name, relation string) (*rel.Instance, error) {
	cr := newCSVReader(src)
	schema, err := readHeader(cr, name, relation)
	if err != nil {
		return nil, err
	}
	in := rel.NewInstance(schema)
	for {
		vals, err := cr.Read()
		if err == io.EOF {
			return in, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		line, _ := cr.FieldPos(0)
		if err := in.InsertLine(rel.Tuple(vals), line); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", name, line, err)
		}
	}
}

// openInput opens the input for one pass and reads its header.
func openInput(open func() (io.ReadCloser, error), name, relation string) (io.ReadCloser, *csv.Reader, *rel.Schema, error) {
	src, err := open()
	if err != nil {
		return nil, nil, nil, err
	}
	cr := newCSVReader(src)
	schema, err := readHeader(cr, name, relation)
	if err != nil {
		src.Close()
		return nil, nil, nil, err
	}
	return src, cr, schema, nil
}

// runPass runs the jobs over the rows cr has left, filling each job's
// count and retained violations; a job that overflowed keeps only its
// overflow flag. The first pass reads to EOF and returns the row count; a
// later pass stops reading once every job in it has overflowed.
func runPass(cr *csv.Reader, name string, jobs []*job, first bool, opts Options) (int, error) {
	W := opts.Parallel
	var (
		abort     = make(chan struct{})
		abortOnce sync.Once
		errMu     sync.Mutex
		firstErr  error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		abortOnce.Do(func() { close(abort) })
	}
	// guard wraps a pipeline stage with panic capture: a bug (or an
	// injected fault) in one worker surfaces as this call's error, never a
	// process crash or a deadlocked WaitGroup.
	guard := func(stage string, fn func()) {
		defer func() {
			if r := recover(); r != nil {
				fail(fmt.Errorf("stream: %s panic: %v", stage, r))
			}
		}()
		fn()
	}

	chunks := make(chan *chunk, W)
	mappedCh := make(chan *mapped, W)
	redChs := make([]chan *mapped, W)
	for w := range redChs {
		redChs[w] = make(chan *mapped, 2)
	}

	totalRows := 0
	var wg sync.WaitGroup

	// Reader: chunked scan with authoritative line numbers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(chunks)
		guard("reader", func() {
			done := opts.Context.Done()
			seq, ord := 0, 0
			for {
				select {
				case <-done:
					fail(opts.Context.Err())
					return
				case <-abort:
					return
				default:
				}
				if !first && allOverflowed(jobs) {
					return
				}
				ck := &chunk{seq: seq, rows: make([]row, 0, opts.ChunkSize)}
				for len(ck.rows) < opts.ChunkSize {
					vals, err := cr.Read()
					if err == io.EOF {
						break
					}
					if err != nil {
						fail(fmt.Errorf("%s: %w", name, err))
						return
					}
					line, _ := cr.FieldPos(0)
					ck.rows = append(ck.rows, row{ord: ord, line: line, vals: append([]string(nil), vals...)})
					ord++
				}
				if len(ck.rows) > 0 {
					select {
					case chunks <- ck:
					case <-abort:
						return
					}
					seq++
				}
				if len(ck.rows) < opts.ChunkSize {
					totalRows = ord
					return
				}
			}
		})
	}()

	// Mappers.
	var mapWG sync.WaitGroup
	for n := 0; n < W; n++ {
		wg.Add(1)
		mapWG.Add(1)
		go func() {
			defer wg.Done()
			defer mapWG.Done()
			guard("mapper", func() {
				for ck := range chunks {
					m := mapChunk(ck, jobs, W, opts)
					select {
					case mappedCh <- m:
					case <-abort:
						return
					}
				}
			})
		}()
	}
	go func() {
		mapWG.Wait()
		close(mappedCh)
	}()

	// Collector: restore sequence order, bank phase-0 violations, fan out
	// to the shard reducers.
	directBufs := make([][]vio, len(jobs))
	directCounts := make([]int, len(jobs))
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			for _, ch := range redChs {
				close(ch)
			}
		}()
		guard("collector", func() {
			pending := make(map[int]*mapped)
			next := 0
			for m := range mappedCh {
				pending[m.seq] = m
				for {
					mm, ok := pending[next]
					if !ok {
						break
					}
					delete(pending, next)
					next++
					for ji := range mm.jobs {
						for _, v := range mm.jobs[ji].direct {
							directCounts[ji]++
							if opts.MaxViolations <= 0 || len(directBufs[ji]) < opts.MaxViolations {
								directBufs[ji] = append(directBufs[ji], v)
							}
						}
					}
					for _, ch := range redChs {
						select {
						case ch <- mm:
						case <-abort:
							return
						}
					}
				}
			}
		})
	}()

	// Reducers: shard w of every job's witness map.
	redBufs := make([][][]vio, W) // [worker][job][]vio
	redCounts := make([][]int, W) // [worker][job]
	for w := 0; w < W; w++ {
		redBufs[w] = make([][]vio, len(jobs))
		redCounts[w] = make([]int, len(jobs))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			guard("reducer", func() {
				maps := make([]map[string]witness, len(jobs))
				for {
					var m *mapped
					var ok bool
					select {
					case m, ok = <-redChs[w]:
					case <-abort:
						return
					}
					if !ok {
						return
					}
					reduceChunk(m, w, jobs, maps, redBufs[w], redCounts[w], opts)
				}
			})
		}(w)
	}

	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	for ji, j := range jobs {
		if j.overflow.Load() {
			continue
		}
		j.count = directCounts[ji]
		j.bufs = append(j.bufs, directBufs[ji])
		for w := 0; w < W; w++ {
			j.count += redCounts[w][ji]
			j.bufs = append(j.bufs, redBufs[w][ji])
		}
	}
	return totalRows, nil
}

func allOverflowed(jobs []*job) bool {
	for _, j := range jobs {
		if !j.overflow.Load() {
			return false
		}
	}
	return true
}

// mapChunk runs the σ/π stage of every job over one chunk: LHS filtering,
// the partition filter, immediate single-tuple violations, and group
// records bucketed by the hash bits above the partition's, mod W. Every
// record of a partition has the same low bits, so sharding on them would
// send a whole partition to one reducer at even W.
func mapChunk(ck *chunk, jobs []*job, W int, opts Options) *mapped {
	faultinject.Hit(faultinject.SiteStreamChunk)
	m := &mapped{seq: ck.seq, jobs: make([]mappedJob, len(jobs))}
	var keyBuf []byte
	for ji, j := range jobs {
		if j.overflow.Load() {
			continue
		}
		r := j.r
		mj := &m.jobs[ji]
		if r.equality {
			a, b := r.c.LHS[0].Attr, r.c.RHS[0].Attr
			for _, t := range ck.rows {
				if t.vals[r.ia] != t.vals[r.ib] {
					mj.direct = append(mj.direct, vio{ord: t.ord, phase: 0, attr: 0, v: cfd.Violation{
						CFD: r.c, T1: t.ord, T2: t.ord, Line1: t.line, Line2: t.line, Attr: b,
						Reason: fmt.Sprintf("%s=%q differs from %s=%q", a, t.vals[r.ia], b, t.vals[r.ib]),
					}})
				}
			}
			continue
		}
		low := uint64(1)<<j.part.bits - 1
	rows:
		for _, t := range ck.rows {
			for i, it := range r.c.LHS {
				if !it.Pat.Matches(t.vals[r.lhsIdx[i]]) {
					continue rows
				}
			}
			var key string
			key, keyBuf = groupKey(keyBuf, t.vals, r.lhsIdx)
			h := hashKey(key)
			if h&low != j.part.mask {
				continue
			}
			for i, it := range r.c.RHS {
				if !it.Pat.Matches(t.vals[r.rhsIdx[i]]) {
					mj.direct = append(mj.direct, vio{ord: t.ord, phase: 0, attr: i, v: cfd.Violation{
						CFD: r.c, T1: t.ord, T2: t.ord, Line1: t.line, Line2: t.line, Attr: it.Attr,
						Reason: fmt.Sprintf("value %q does not match pattern %s", t.vals[r.rhsIdx[i]], it.Pat),
					}})
				}
			}
			y := make([]string, len(r.rhsIdx))
			for i, idx := range r.rhsIdx {
				y[i] = t.vals[idx]
			}
			if mj.shards == nil {
				mj.shards = make([][]rec, W)
			}
			s := int((h >> j.part.bits) % uint64(W))
			mj.shards[s] = append(mj.shards[s], rec{ord: t.ord, line: t.line, key: key, y: y})
		}
	}
	return m
}

// reduceChunk folds one in-order mapped chunk into reducer w's witness
// maps, emitting group conflicts on arrival.
func reduceChunk(m *mapped, w int, jobs []*job, maps []map[string]witness, bufs [][]vio, counts []int, opts Options) {
	for ji := range m.jobs {
		if m.jobs[ji].shards == nil {
			continue
		}
		j := jobs[ji]
		if j.overflow.Load() {
			maps[ji] = nil // free the shard's witnesses; the halves redo the partition
			continue
		}
		if maps[ji] == nil {
			maps[ji] = make(map[string]witness)
		}
		for _, rc := range m.jobs[ji].shards[w] {
			wt, ok := maps[ji][rc.key]
			if !ok {
				if opts.MaxGroups >= 0 && j.groups.Add(1) > int64(opts.MaxGroups) {
					j.overflow.Store(true)
					maps[ji] = nil
					break
				}
				if opts.MaxGroups < 0 {
					j.groups.Add(1)
				}
				maps[ji][rc.key] = witness{ord: rc.ord, line: rc.line, y: rc.y}
				continue
			}
			for i, it := range j.r.c.RHS {
				if wt.y[i] != rc.y[i] {
					counts[ji]++
					if opts.MaxViolations <= 0 || len(bufs[ji]) < opts.MaxViolations {
						bufs[ji] = append(bufs[ji], vio{ord: rc.ord, phase: 1, attr: i, v: cfd.Violation{
							CFD: j.r.c, T1: wt.ord, T2: rc.ord, Line1: wt.line, Line2: rc.line, Attr: it.Attr,
							Reason: fmt.Sprintf("agree on LHS but %q != %q on %s", wt.y[i], rc.y[i], it.Attr),
						}})
					}
				}
			}
		}
	}
}
