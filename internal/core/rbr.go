package core

import (
	"context"

	"cfdprop/internal/cfd"
	"cfdprop/internal/implication"
	"cfdprop/internal/parutil"
)

// DropOrder selects the order in which RBR eliminates non-projected
// attributes. The choice does not affect the result (any order yields a
// cover, Proposition 4.4) but can affect intermediate sizes considerably.
type DropOrder int

const (
	// DropFewestOccurrences re-sorts the remaining attributes by how many
	// CFDs mention them, eliminating the cheapest first (default).
	DropFewestOccurrences DropOrder = iota
	// DropSequential eliminates attributes in the given order.
	DropSequential
)

// rbrConfig tunes procedure RBR.
type rbrConfig struct {
	// ctx cancels the run cooperatively between elimination rounds and
	// inside the implication chases; nil disables.
	ctx   context.Context
	order DropOrder
	// blockSize: Γ is partitioned into blocks of this size and MinCover is
	// applied per block after each elimination round, pruning redundant
	// CFDs without the full cubic cost (§4.3 optimization). <= 0 disables.
	blockSize int
	// maxCover: when > 0 and Γ grows beyond it, stop generating new
	// resolvents (the polynomial-time heuristic of §1: return a subset of
	// a cover once a predefined bound is reached).
	maxCover int
	// parallelism: blocks within one pruning round are independent, so
	// they fan out over this many implication sessions, one per worker
	// (<= 1 keeps the single-session serial path).
	parallelism int
}

// resolvent builds the A-resolvent of φ1 = (W → A, t1) and φ2 = (AZ → B,
// t2), per §4.2: defined when t1[A] ≤ t2[A] and t1[W] ⊕ t2[Z] is defined;
// the result is (WZ → B, (t1[W] ⊕ t2[Z] ‖ t2[B])). Returns nil when
// undefined, mentioning A, or trivial.
func resolvent(phi1, phi2 *cfd.CFD, a string) *cfd.CFD {
	t1A := phi1.RHS[0].Pat
	var t2A cfd.Pattern
	found := false
	for _, it := range phi2.LHS {
		if it.Attr == a {
			t2A = it.Pat
			found = true
			break
		}
	}
	if !found || !t1A.LE(t2A) {
		return nil
	}
	// Merge W = phi1.LHS with Z = phi2.LHS − {A}.
	merged := map[string]cfd.Pattern{}
	var order []string
	add := func(attr string, p cfd.Pattern) bool {
		if attr == a {
			return false // resolvent must not mention A
		}
		q, seen := merged[attr]
		if !seen {
			merged[attr] = p
			order = append(order, attr)
			return true
		}
		m, ok := cfd.Min(p, q)
		if !ok {
			return false // ⊕ undefined
		}
		merged[attr] = m
		return true
	}
	for _, it := range phi1.LHS {
		if !add(it.Attr, it.Pat) {
			return nil
		}
	}
	for _, it := range phi2.LHS {
		if it.Attr == a {
			continue
		}
		if !add(it.Attr, it.Pat) {
			return nil
		}
	}
	b := phi2.RHS[0]
	if b.Attr == a {
		return nil
	}
	lhs := make([]cfd.Item, 0, len(order))
	for _, attr := range order {
		lhs = append(lhs, cfd.Item{Attr: attr, Pat: merged[attr]})
	}
	out := &cfd.CFD{Relation: phi2.Relation, LHS: lhs, RHS: []cfd.Item{b}}
	if out.IsTrivial() {
		return nil
	}
	return out
}

// drop eliminates attribute a from Γ: Drop(Γ, a) = Res(Γ, a) ∪ Γ[U − {a}].
// When truncate is true no new resolvents are added (heuristic mode).
func drop(gamma []*cfd.CFD, a string, truncate bool) []*cfd.CFD {
	var producers, consumers, keep []*cfd.CFD
	for _, c := range gamma {
		mentions := c.Mentions(a)
		if !mentions {
			keep = append(keep, c)
			continue
		}
		if !c.Equality && c.RHS[0].Attr == a {
			producers = append(producers, c)
		}
		if !c.Equality {
			if _, onLHS := c.LHSItem(a); onLHS {
				consumers = append(consumers, c)
			}
		}
	}
	if !truncate {
		for _, p := range producers {
			for _, q := range consumers {
				if r := resolvent(p, q, a); r != nil {
					keep = append(keep, r)
				}
			}
		}
	}
	return cfd.Dedup(keep)
}

// runRBR computes RBR(Γ, dropAttrs): a cover of Γ+ restricted to the
// attributes outside dropAttrs (Proposition 4.4). truncated reports that
// the maxCover heuristic fired, in which case the result is a subset of a
// cover rather than a full cover.
func runRBR(u implication.Universe, gamma []*cfd.CFD, dropAttrs []string, cfg rbrConfig) (out []*cfd.CFD, truncated bool, err error) {
	gamma = cfd.Dedup(gamma)
	remaining := append([]string(nil), dropAttrs...)
	// One implication session per worker serves every block-pruning
	// MinCover across all elimination rounds, so the chase state is pooled
	// across the whole RBR run. Worker w mints sessions[w] on first use.
	sessions := make([]*implication.Session, max(cfg.parallelism, 1))
	ctx := cfg.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	done := ctx.Done()
	// Lazy pruning: the block-wise MinCover of §4.3 only pays off when
	// resolution actually grew the working set. Most eliminations on
	// sparse workloads just delete CFDs, so pruning after every drop would
	// dominate the whole algorithm (quadratically in |U − Y|).
	sinceLastPrune := 0
	for len(remaining) > 0 {
		if done != nil {
			select {
			case <-done:
				return nil, false, ctx.Err()
			default:
			}
		}
		next := 0
		if cfg.order == DropFewestOccurrences {
			counts := occurrenceCounts(gamma, remaining)
			for i := 1; i < len(remaining); i++ {
				if counts[remaining[i]] < counts[remaining[next]] ||
					(counts[remaining[i]] == counts[remaining[next]] && remaining[i] < remaining[next]) {
					next = i
				}
			}
		}
		a := remaining[next]
		remaining = append(remaining[:next], remaining[next+1:]...)
		truncate := cfg.maxCover > 0 && len(gamma) > cfg.maxCover
		if truncate {
			truncated = true
		}
		before := len(gamma)
		gamma = drop(gamma, a, truncate)
		if grew := len(gamma) - before; grew > 0 {
			sinceLastPrune += grew
		}
		if cfg.blockSize > 0 && sinceLastPrune >= cfg.blockSize && len(gamma) > cfg.blockSize {
			gamma, err = blockMinCover(ctx, u, sessions, gamma, cfg.blockSize)
			if err != nil {
				return nil, false, err
			}
			sinceLastPrune = 0
		}
	}
	return gamma, truncated, nil
}

// occurrenceCounts counts, for each candidate attribute, the CFDs that
// mention it — one pass over Γ instead of one per comparison.
func occurrenceCounts(gamma []*cfd.CFD, candidates []string) map[string]int {
	want := make(map[string]bool, len(candidates))
	for _, a := range candidates {
		want[a] = true
	}
	counts := make(map[string]int, len(candidates))
	for _, c := range gamma {
		for _, it := range c.LHS {
			if want[it.Attr] {
				counts[it.Attr]++
			}
		}
		for _, it := range c.RHS {
			if want[it.Attr] {
				counts[it.Attr]++
			}
		}
	}
	return counts
}

// blockMinCover partitions Γ into blocks of size k and replaces each block
// with its minimal cover — the §4.3 optimization that sheds redundant CFDs
// in O(|Γ|·k²) implication tests instead of O(|Γ|³). Blocks are mutually
// independent, so they fan out with one worker per session, worker w
// running on sessions[w] (minted over u on first use); the result is
// assembled in block order, making the output identical at every
// parallelism level.
func blockMinCover(ctx context.Context, u implication.Universe, sessions []*implication.Session, gamma []*cfd.CFD, k int) ([]*cfd.CFD, error) {
	nblocks := (len(gamma) + k - 1) / k
	covers := make([][]*cfd.CFD, nblocks)
	errs := make([]error, nblocks)
	if err := parutil.DoCtx(ctx, nblocks, len(sessions), func(w, b int) {
		sess := sessions[w]
		if sess == nil {
			sess = implication.NewSession(u)
			sess.SetContext(ctx)
			sessions[w] = sess
		}
		start := b * k
		end := start + k
		if end > len(gamma) {
			end = len(gamma)
		}
		covers[b], errs[b] = sess.MinCover(gamma[start:end])
	}); err != nil {
		return nil, err
	}
	var out []*cfd.CFD
	for b := 0; b < nblocks; b++ {
		if errs[b] != nil {
			return nil, errs[b]
		}
		out = append(out, covers[b]...)
	}
	return cfd.Dedup(out), nil
}
