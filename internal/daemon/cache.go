package daemon

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"cfdprop/internal/algebra"
	"cfdprop/internal/cfd"
	"cfdprop/internal/core"
	"cfdprop/internal/faultinject"
	"cfdprop/internal/implication"
	"cfdprop/internal/propagation"
	"cfdprop/internal/rel"
	"cfdprop/internal/spec"
)

// errEvicted reports that a request's universe was evicted, or replaced by
// a Σ edit, before the request could compute on it; the daemon answers it
// with 503 + Retry-After, and the retry recompiles or resolves the
// successor.
var errEvicted = errors.New("daemon: universe evicted")

// entry is one compiled (Σ, V) universe. The compiled artifacts — schema,
// Σ, view, view schema — are immutable after construction: a Σ edit builds
// a NEW entry (new fingerprint, generation + 1) rather than mutating one
// that in-flight requests may be reading. Only the warm cover state behind
// mu, the idle sessions and the closed flag are mutable.
type entry struct {
	fp    string
	gen   uint64 // Σ-edit generation of this handle chain (starts at 1)
	db    *rel.DBSchema
	sigma []*cfd.CFD
	view  *algebra.SPCU
	vs    *rel.Schema // view schema
	// memo caches §3 pair verdicts and disjunct emptiness across this
	// universe's /v1/check and cover requests. A propagation.Memo is valid
	// for exactly one (schema, Σ, V) — which is exactly what an entry pins
	// down. A Σ edit, PUT or PATCH, migrates it into the successor entry:
	// verdicts the edit provably cannot affect carry forward.
	memo *propagation.Memo

	// idle holds implication sessions over the view schema with the
	// memoized cover compiled, each owned by no request — the cross-query
	// cache the /v1/implies fast path runs on. A request takes one, or
	// compiles one when none is idle, and puts it back after its query. A
	// successor entry compiles its own from its own cover.
	idle sync.Pool
	// closed is set when the entry is evicted or replaced by a Σ edit:
	// cover computations on it then fail with errEvicted. Requests already
	// holding an idle session finish their query on it.
	closed atomic.Bool

	mu    sync.Mutex
	cover *coverOutcome
	// cs is the incremental cover session (bucket caches, warm implication
	// sessions, migrated memo); a Σ edit transfers it so a post-edit cover
	// repairs the per-relation MinCovers instead of recomputing them.
	cs *core.CoverSession
}

// coverOutcome unifies the SPC (core.Result) and SPCU (core.UnionResult)
// cover shapes into the one form the daemon serves and memoizes.
type coverOutcome struct {
	cover       []*cfd.CFD
	alwaysEmpty bool
	truncated   bool
}

// compileEntry builds an entry from a spec, fingerprinting the canonical
// re-encoding of the *compiled* objects so syntactic variants of one
// problem (whitespace, CFD ordering inside a line, resolved defaults) land
// on the same cache key.
func compileEntry(p *spec.Problem) (*entry, error) {
	db, sigma, view, err := spec.Compile(p)
	if err != nil {
		return nil, err
	}
	vs, err := view.ViewSchema(db)
	if err != nil {
		return nil, err
	}
	fp, err := fingerprint(db, sigma, view)
	if err != nil {
		return nil, err
	}
	return &entry{
		fp:    fp,
		gen:   1,
		db:    db,
		sigma: sigma,
		view:  view,
		vs:    vs,
		memo:  propagation.NewMemo(),
	}, nil
}

// fingerprint is the cache key of a compiled (Σ, V): a hash of its
// canonical encoding.
func fingerprint(db *rel.DBSchema, sigma []*cfd.CFD, view *algebra.SPCU) (string, error) {
	canonical, err := spec.Encode(db, sigma, view)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:8]), nil
}

// parseCFDs parses a request's CFD texts.
func parseCFDs(srcs []string) ([]*cfd.CFD, error) {
	out := make([]*cfd.CFD, 0, len(srcs))
	for _, src := range srcs {
		c, err := cfd.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("cfd %q: %w", src, err)
		}
		out = append(out, c)
	}
	return out, nil
}

// replaceSigma derives the successor entry of a whole-Σ replacement (PUT):
// the new Σ is parsed and validated, then diffed against the current one,
// and the delta goes through successor exactly as a PATCH does.
func (e *entry) replaceSigma(cfds []string) (*entry, propagation.CarryStats, error) {
	sigma, err := parseCFDs(cfds)
	if err != nil {
		return nil, propagation.CarryStats{}, err
	}
	if err := cfd.ValidateAll(sigma, e.db); err != nil {
		return nil, propagation.CarryStats{}, err
	}
	return e.successor(sigma, propagation.DiffSigma(e.sigma, sigma))
}

// patchSigma derives the successor entry of a Σ delta (PATCH): parse and
// apply add/remove against the current Σ (removals match by normalized
// form; a removal absent from Σ is an error before any state changes),
// then hand the delta to successor.
func (e *entry) patchSigma(add, remove []string) (*entry, propagation.CarryStats, error) {
	adds, err := parseCFDs(add)
	if err != nil {
		return nil, propagation.CarryStats{}, err
	}
	removes, err := parseCFDs(remove)
	if err != nil {
		return nil, propagation.CarryStats{}, err
	}
	if err := cfd.ValidateAll(adds, e.db); err != nil {
		return nil, propagation.CarryStats{}, err
	}

	next := append([]*cfd.CFD(nil), cfd.NormalizeAll(e.sigma)...)
	removesN := cfd.NormalizeAll(removes)
	for _, r := range removesN {
		rs := r.String()
		found := -1
		for i, c := range next {
			if c.String() == rs {
				found = i
				break
			}
		}
		if found < 0 {
			return nil, propagation.CarryStats{}, fmt.Errorf("remove: %s is not in Σ", rs)
		}
		next = append(next[:found:found], next[found+1:]...)
	}
	addsN := cfd.NormalizeAll(adds)
	next = append(next, addsN...)
	return e.successor(next, propagation.EditSet{AddedSigma: addsN, RemovedSigma: removesN})
}

// successor derives the entry that replaces e after a Σ edit — the one
// constructor behind PUT and PATCH. next is the new Σ as the entry keeps
// it and edit the delta from e's Σ. The memo migrates across the edit, so
// verdicts the edit provably cannot affect carry forward, and the cover
// session transfers to the new entry. The idle sessions stay with e, which
// closes: a request already holding one answers from e's cover, and any
// later request on e answers 503 + Retry-After, whose retry resolves the
// new fingerprint.
func (e *entry) successor(next []*cfd.CFD, edit propagation.EditSet) (*entry, propagation.CarryStats, error) {
	fp, err := fingerprint(e.db, next, e.view)
	if err != nil {
		return nil, propagation.CarryStats{}, err
	}
	memo, st := e.memo.Migrate(e.view, edit)

	// Transfer the cover session; the old entry stops serving.
	e.mu.Lock()
	cs := e.cs
	e.cs = nil
	e.closed.Store(true)
	e.mu.Unlock()

	fresh := &entry{
		fp:    fp,
		gen:   e.gen + 1,
		db:    e.db,
		sigma: next,
		view:  e.view,
		vs:    e.vs,
		memo:  memo,
		cs:    cs,
	}
	if cs != nil {
		cs.RebaseMemo(memo, next)
	}
	return fresh, st, nil
}

// ensureCover returns the entry's minimal cover, computing and memoizing
// it on first need. Callers pass parallelism for the computation only; the
// memoized result is identical at every worker count. cached reports
// whether the memo was hit. errEvicted reports the entry was evicted
// mid-flight.
func (e *entry) ensureCover(ctx context.Context, parallelism int) (out *coverOutcome, cached bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return nil, false, errEvicted
	}
	if e.cover != nil {
		return e.cover, true, nil
	}
	out, err = e.coverLocked(ctx, parallelism, 0)
	if err != nil {
		return nil, false, err
	}
	e.cover = out
	return out, false, nil
}

// coverWith runs a one-off cover with non-default knobs (a heuristic
// MaxCoverSize); such results are never memoized, so the warm Σ is always
// the exact cover.
func (e *entry) coverWith(ctx context.Context, parallelism, maxCoverSize int) (*coverOutcome, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return nil, errEvicted
	}
	return e.coverLocked(ctx, parallelism, maxCoverSize)
}

// coverLocked runs the cover computation for this universe through the
// entry's incremental CoverSession (created on first need, transferred
// across Σ edits). Heuristic covers (maxCoverSize > 0) run on a one-off
// session instead: they are never memoized and must not pollute the warm
// session's caches. Both share the entry memo: verdicts carried by a Σ
// edit replay here, and cover-time verdicts serve later /v1/check
// requests.
func (e *entry) coverLocked(ctx context.Context, parallelism, maxCoverSize int) (*coverOutcome, error) {
	cs := e.cs
	if cs == nil || maxCoverSize > 0 {
		var err error
		cs, err = core.NewCoverSession(e.db, e.view, core.Options{Parallelism: parallelism, MaxCoverSize: maxCoverSize})
		if err != nil {
			return nil, err
		}
		cs.SetMemo(e.memo)
		if maxCoverSize == 0 {
			e.cs = cs
		}
	}
	if len(e.view.Disjuncts) == 1 {
		res, err := cs.CoverDisjunct(ctx, 0, e.sigma)
		if err != nil {
			return nil, err
		}
		return &coverOutcome{cover: res.Cover, alwaysEmpty: res.AlwaysEmpty, truncated: res.Truncated}, nil
	}
	res, err := cs.Cover(ctx, e.sigma)
	if err != nil {
		return nil, err
	}
	return &coverOutcome{cover: res.Cover}, nil
}

// exact reports whether this universe's cover is exact (§4: single SPC
// disjunct) rather than the sound union heuristic.
func (e *entry) exact() bool { return len(e.view.Disjuncts) == 1 }

// impliedByCover answers φ against the memoized cover on an idle session,
// compiling one when none is idle. The session goes back to the idle set
// only after a query that returned: a panic unwinds past the put and drops
// it, and a query that failed (cancelled, say) is Reset first.
func (e *entry) impliedByCover(ctx context.Context, parallelism int, phi *cfd.CFD) (bool, error) {
	out, _, err := e.ensureCover(ctx, parallelism)
	if err != nil {
		return false, err
	}
	s, _ := e.idle.Get().(*implication.Session)
	if s == nil {
		s = implication.NewSession(implication.UniverseOf(e.vs))
		// AlwaysEmpty covers hold Lemma 4.5's conflicting pair — a
		// legitimate Σ (every view CFD is vacuously implied).
		if err := s.SetSigma(out.cover); err != nil {
			return false, err
		}
	}
	faultinject.Hit(faultinject.SiteDaemonImplies)
	s.SetContext(ctx)
	implied, err := s.Implies(phi)
	s.SetContext(nil)
	if err != nil {
		s.Reset()
	}
	e.idle.Put(s)
	return implied, err
}

// CacheStats is the /statusz view of the universe cache.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// HitRate is Hits/(Hits+Misses); 0 with no traffic.
	HitRate float64 `json:"hit_rate"`
	// Memo aggregates the §3 pair-verdict memo counters over the live
	// entries (evicted entries take their memo with them).
	Memo propagation.MemoStats `json:"memo"`
	// MemoHitRate and MemoEmptyHitRate are the aggregated memo's pair-
	// verdict and disjunct-emptiness replay rates (hits over lookups).
	MemoHitRate      float64 `json:"memo_hit_rate"`
	MemoEmptyHitRate float64 `json:"memo_empty_hit_rate"`
}

// rate is a safe hits/(hits+misses); 0 when there was no traffic.
func rate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// cache is the LRU of compiled universes, keyed by (Σ, V) fingerprint.
type cache struct {
	mu        sync.Mutex
	max       int
	entries   map[string]*list.Element // fp → element holding *entry
	lru       *list.List               // front = most recently used
	hits      int64
	misses    int64
	evictions int64
}

func newCache(max int) *cache {
	if max < 1 {
		max = 1
	}
	return &cache{
		max:     max,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// lookup resolves a fingerprint, bumping its LRU position.
func (c *cache) lookup(fp string) (*entry, bool) {
	faultinject.Hit(faultinject.SiteDaemonCache)
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[fp]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*entry), true
}

// getOrCompile resolves an inline spec through the cache: compile,
// fingerprint, and either return the already-warm entry or insert the new
// one (evicting the coldest when full). hit reports whether compilation
// work was saved. Note the compile runs outside the lock — two concurrent
// first requests may both compile, and the loser's entry is dropped in
// favor of the winner's.
func (c *cache) getOrCompile(p *spec.Problem) (e *entry, hit bool, err error) {
	faultinject.Hit(faultinject.SiteDaemonCache)
	fresh, err := compileEntry(p)
	if err != nil {
		return nil, false, fmt.Errorf("spec: %w", err)
	}
	return c.insert(fresh)
}

// insert adds an entry, returning the existing one on a fingerprint hit.
func (c *cache) insert(fresh *entry) (*entry, bool, error) {
	c.mu.Lock()
	if el, ok := c.entries[fresh.fp]; ok {
		c.hits++
		c.lru.MoveToFront(el)
		e := el.Value.(*entry)
		c.mu.Unlock()
		return e, true, nil
	}
	c.misses++
	c.entries[fresh.fp] = c.lru.PushFront(fresh)
	for c.lru.Len() > c.max {
		back := c.lru.Back()
		old := back.Value.(*entry)
		c.lru.Remove(back)
		delete(c.entries, old.fp)
		c.evictions++
		// Only the flag: a cover in flight on old holds its lock, and the
		// request evicting it must not wait for that cover.
		old.closed.Store(true)
	}
	c.mu.Unlock()
	return fresh, false, nil
}

// replace atomically swaps an edited universe in: the old fingerprint
// stops resolving (and the old entry closes), the new entry takes its LRU
// slot. If the old entry was already gone (concurrent edit or eviction),
// the new one is still inserted — last writer wins, both outcomes are
// coherent.
func (c *cache) replace(old, fresh *entry) (*entry, error) {
	c.mu.Lock()
	if el, ok := c.entries[old.fp]; ok && el.Value.(*entry) == old {
		c.lru.Remove(el)
		delete(c.entries, old.fp)
	}
	c.mu.Unlock()
	old.closed.Store(true)
	e, _, err := c.insert(fresh)
	return e, err
}

func (c *cache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStats{
		Entries:   c.lru.Len(),
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
	for el := c.lru.Front(); el != nil; el = el.Next() {
		m := el.Value.(*entry).memo.Stats()
		st.Memo.Pairs += m.Pairs
		st.Memo.Disjuncts += m.Disjuncts
		st.Memo.Hits += m.Hits
		st.Memo.Misses += m.Misses
		st.Memo.EmptyHits += m.EmptyHits
		st.Memo.EmptyMisses += m.EmptyMisses
		st.Memo.CarriedPairs += m.CarriedPairs
		st.Memo.CarriedEmpty += m.CarriedEmpty
	}
	st.HitRate = rate(st.Hits, st.Misses)
	st.MemoHitRate = rate(st.Memo.Hits, st.Memo.Misses)
	st.MemoEmptyHitRate = rate(st.Memo.EmptyHits, st.Memo.EmptyMisses)
	return st
}
