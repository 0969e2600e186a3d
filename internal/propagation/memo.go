package propagation

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cfdprop/internal/algebra"
	"cfdprop/internal/cfd"
	"cfdprop/internal/rel"
)

// Memo caches per-pair propagation outcomes and per-disjunct emptiness
// across Check calls. It is safe for concurrent use and is meant to be
// shared across the union candidates of one PropCFDSPCU run and across
// repeated daemon requests against one compiled universe.
//
// Contract (the factorised-chase contract, see doc.go): a Memo is scoped
// to one (schema, Σ, V) triple — everything a pair outcome depends on
// besides the keyed φ. Callers must use a fresh Memo whenever Σ or the
// view changes (the daemon allocates one per cache entry, so its Σ-edit
// generation bump invalidates the memo for free), or migrate the old one
// across the edit with Migrate. Entries replay the exact counters of a
// fresh evaluation (Instantiations, Truncated, the counterexample bytes),
// so a Result assembled from hits is byte-identical to one computed fresh.
// Stopped or errored pair checks are never stored.
type Memo struct {
	mu    sync.Mutex
	empty map[string]bool
	// byPhi buckets the pair entries by their per-φ key — φ's text plus
	// the option knobs that shape the outcome. Within a bucket, entries
	// are keyed by the compact pair code: the disjunct index pair under
	// the memo's cached view (dstr below). Short integer keys let the
	// O(k²) warm lookups hash four bytes instead of re-hashing ~200-byte
	// disjunct renders on every pair visit, and let Migrate remap indexes
	// instead of parsing and re-hashing every key.
	byPhi map[string]map[uint32]*memoPairEntry

	// view/dstr cache the disjunct fingerprints the pair codes are
	// relative to, rendered once per memo scope instead of once per Check
	// call. Set by keyMaker on first use, or by Migrate for the post-edit
	// view. A different view pointer with identical renders adopts the
	// cache; different renders mean the scope contract was violated, and
	// keyMaker resets the pair store — a cold cache is the safe reading.
	view *algebra.SPCU
	dstr []string

	hits, misses           atomic.Int64
	emptyHits, emptyMisses atomic.Int64

	// carriedPairs/carriedEmpty record how many entries Migrate seeded this
	// memo with (set once at construction, surfaced via Stats).
	carriedPairs, carriedEmpty int64
}

// memoPairEntry is one pair check's contribution to the Result.
type memoPairEntry struct {
	refuted   bool
	insts     int
	truncated bool
	// unrealizable marks a pair whose premise cannot be realized (φ's LHS
	// pattern constants clash on the equated summaries). The outcome is
	// discovered before Σ is consulted, so — like disjunct emptiness — it
	// is Σ-independent; replays contribute no counters, exactly as the
	// fresh discovery contributes none, so Results stay byte-identical
	// between warm and cold runs.
	unrealizable bool
	cex          *rel.Database // nil when stored without WantCounterexample
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{empty: make(map[string]bool), byPhi: make(map[string]map[uint32]*memoPairEntry)}
}

// MemoStats is a point-in-time snapshot of a memo's size and cumulative
// hit/miss counters (summed over every Check that used it).
type MemoStats struct {
	Pairs     int   `json:"pairs"`
	Disjuncts int   `json:"disjuncts"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	// EmptyHits/EmptyMisses count lookupEmpty outcomes: how often a
	// disjunct's intrinsic emptiness was answered from the cache versus
	// unknown. The scout consults the cache once per disjunct, so the
	// counters advance identically at every Parallelism.
	EmptyHits   int64 `json:"empty_hits"`
	EmptyMisses int64 `json:"empty_misses"`
	// CarriedPairs/CarriedEmpty count the entries this memo inherited from
	// a pre-edit memo via Migrate (0 for a memo born empty): verdicts
	// replayed instead of rechased after a Σ/V edit.
	CarriedPairs int64 `json:"carried_pairs,omitempty"`
	CarriedEmpty int64 `json:"carried_empty,omitempty"`
}

// Stats snapshots the memo.
func (m *Memo) Stats() MemoStats {
	if m == nil {
		return MemoStats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	pairs := 0
	for _, b := range m.byPhi {
		pairs += len(b)
	}
	return MemoStats{
		Pairs:        pairs,
		Disjuncts:    len(m.empty),
		Hits:         m.hits.Load(),
		Misses:       m.misses.Load(),
		EmptyHits:    m.emptyHits.Load(),
		EmptyMisses:  m.emptyMisses.Load(),
		CarriedPairs: m.carriedPairs,
		CarriedEmpty: m.carriedEmpty,
	}
}

// lookupEmpty reports a disjunct's intrinsic emptiness, if known.
func (m *Memo) lookupEmpty(key string) (empty, known bool) {
	m.mu.Lock()
	empty, known = m.empty[key]
	m.mu.Unlock()
	if known {
		m.emptyHits.Add(1)
	} else {
		m.emptyMisses.Add(1)
	}
	return empty, known
}

// storeEmpty records a disjunct's intrinsic emptiness. The value is an
// intrinsic property of the disjunct, so concurrent writers always agree.
func (m *Memo) storeEmpty(key string, empty bool) {
	m.mu.Lock()
	m.empty[key] = empty
	m.mu.Unlock()
}

// Pair codes pack a schedule entry's disjunct indexes into one map key:
// bit 31 flags an equality-CFD entry, pair entries use i<<16|j. Views stay
// far below 2^15 disjuncts (the pair loop alone is O(k²)), so the packing
// cannot collide.
func pairCode(i, j int) uint32 { return uint32(i)<<16 | uint32(j) }
func eqCode(i int) uint32      { return 1<<31 | uint32(i) }

// decodeCode is the inverse of pairCode/eqCode (for equality entries both
// returned indexes are the disjunct's).
func decodeCode(c uint32) (i, j int, eq bool) {
	if c&(1<<31) != 0 {
		i = int(c &^ (1 << 31))
		return i, i, true
	}
	return int(c >> 16), int(c & 0xffff), false
}

// pairKeyMaker is one Check call's handle on the memo's key space: the
// memo-cached disjunct fingerprints (the emptiness keys, indexed like the
// view's disjuncts) and the call's φ bucket key. Obtained from
// Memo.keyMaker; non-nil in the check loops exactly when Options.Memo is.
type pairKeyMaker struct {
	disjunct []string
	phiKey   string
}

// keyMaker prepares the per-call key fragments, rendering the disjunct
// fingerprints only on the first call of a memo scope. SPC.String is the
// dominant cost of key construction, and it is invariant across every
// Check call sharing the memo — caching it in the memo turns the per-call
// cost into one φ render.
func (m *Memo) keyMaker(view *algebra.SPCU, phi *cfd.CFD, opts Options) *pairKeyMaker {
	m.mu.Lock()
	if m.view != view {
		dstr := make([]string, len(view.Disjuncts))
		for i, d := range view.Disjuncts {
			dstr[i] = d.String()
		}
		if m.view != nil && !equalStrings(m.dstr, dstr) {
			// The view genuinely changed without a Migrate — a scope-
			// contract violation. The stored codes are relative to the old
			// view's indexes, so drop them rather than replay them against
			// the wrong disjuncts.
			m.byPhi = make(map[string]map[uint32]*memoPairEntry)
		}
		m.view, m.dstr = view, dstr
	}
	d := m.dstr
	m.mu.Unlock()
	return &pairKeyMaker{
		disjunct: d,
		phiKey:   phi.String() + fmt.Sprintf("\x00g=%t,max=%d", opts.General, opts.MaxInstantiations),
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// memoTxn is one Check call's view of a memo: lookups read the shared
// store, but this call's own stores are buffered and only flushed when
// the call completes — so the hit/miss pattern over one call's schedule
// does not depend on the order its own workers finish in.
type memoTxn struct {
	m  *Memo
	mu sync.Mutex
	// stores is ordered: schedule assembly order, so flushing preserves the
	// first-computed entry when a key repeats.
	stores []memoStore
}

type memoStore struct {
	phi   string
	code  uint32
	entry *memoPairEntry
}

func (m *Memo) begin() *memoTxn { return &memoTxn{m: m} }

// lookupPair returns a stored outcome for (φ bucket, pair code). A refuted
// entry stored without a counterexample does not satisfy a
// WantCounterexample lookup — the caller recomputes (and the flush
// upgrades the entry).
func (t *memoTxn) lookupPair(phi string, code uint32, wantCex bool) (*memoPairEntry, bool) {
	t.m.mu.Lock()
	var e *memoPairEntry
	var ok bool
	if b := t.m.byPhi[phi]; b != nil {
		e, ok = b[code]
	}
	t.m.mu.Unlock()
	if !ok {
		return nil, false
	}
	if wantCex && e.refuted && e.cex == nil {
		return nil, false
	}
	return e, true
}

// storePair buffers one completed pair outcome for the end-of-call flush.
func (t *memoTxn) storePair(phi string, code uint32, e *memoPairEntry) {
	t.mu.Lock()
	t.stores = append(t.stores, memoStore{phi: phi, code: code, entry: e})
	t.mu.Unlock()
}

// commit flushes the buffered stores into the shared memo and folds the
// call's hit/miss counters into the cumulative stats. An existing entry is
// only replaced when the new one carries a counterexample the old one
// lacks.
func (t *memoTxn) commit(hits, misses int) {
	t.m.hits.Add(int64(hits))
	t.m.misses.Add(int64(misses))
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	for _, s := range t.stores {
		b := t.m.byPhi[s.phi]
		if b == nil {
			b = make(map[uint32]*memoPairEntry)
			t.m.byPhi[s.phi] = b
		}
		if old, ok := b[s.code]; ok && !(old.refuted && old.cex == nil && s.entry.cex != nil) {
			continue
		}
		b[s.code] = s.entry
	}
}
