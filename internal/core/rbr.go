package core

import (
	"context"
	"slices"

	"cfdprop/internal/cfd"
	"cfdprop/internal/implication"
	"cfdprop/internal/parutil"
)

// DropOrder selects the order in which RBR eliminates non-projected
// attributes. The choice does not affect the result (any order yields a
// cover, Proposition 4.4) but can affect intermediate sizes considerably.
type DropOrder int

const (
	// DropFewestOccurrences eliminates next the remaining attribute that
	// the fewest items of Γ name (a CFD naming it on both sides counts
	// twice), ties broken by attribute name (default).
	DropFewestOccurrences DropOrder = iota
	// DropSequential eliminates attributes in the given order.
	DropSequential
)

// rbrConfig tunes procedure RBR.
type rbrConfig struct {
	// ctx cancels the run cooperatively between elimination rounds and
	// inside the implication closure; nil disables.
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
// the result is (WZ → B, (t1[W] ⊕ t2[Z] ‖ t2[B])), its LHS in
// first-appearance order over W then Z. Returns nil when undefined,
// mentioning A, or trivial.
func resolvent(phi1, phi2 *cfd.CFD, a string) *cfd.CFD {
	t2A, found := phi2.LHSItem(a)
	if !found || !phi1.RHS[0].Pat.LE(t2A.Pat) {
		return nil
	}
	b := phi2.RHS[0]
	if b.Attr == a {
		return nil
	}
	// Most pairs that get this far have no resolvent (⊕ undefined, or
	// trivial), so W and Z merge in a stack buffer and only a resolvent
	// gets its own LHS.
	var buf [20]cfd.Item
	lhs := buf[:0]
	ok := true
	for _, it := range phi1.LHS {
		if it.Attr == a {
			return nil // the resolvent must not mention A
		}
		if lhs, ok = mergeItem(lhs, it); !ok {
			return nil
		}
	}
	for _, it := range phi2.LHS {
		if it.Attr == a {
			continue
		}
		if lhs, ok = mergeItem(lhs, it); !ok {
			return nil
		}
	}
	// Trivial (§4.1): B is on the LHS with a pattern ≤ t2[B].
	for _, it := range lhs {
		if it.Attr == b.Attr && it.Pat.LE(b.Pat) {
			return nil
		}
	}
	return &cfd.CFD{Relation: phi2.Relation, LHS: slices.Clone(lhs), RHS: []cfd.Item{b}}
}

// mergeItem adds it to lhs under ⊕: an attribute already present keeps its
// place and takes the smaller pattern, and ok is false when the two
// patterns are incomparable (⊕ undefined).
func mergeItem(lhs []cfd.Item, it cfd.Item) (out []cfd.Item, ok bool) {
	for k := range lhs {
		if lhs[k].Attr == it.Attr {
			lhs[k].Pat, ok = cfd.Min(lhs[k].Pat, it.Pat)
			return lhs, ok
		}
	}
	return append(lhs, it), true
}

// gammaSet is RBR's working set Γ. Eliminating an attribute touches only
// the members that mention it, found through an occurrence index.
//
// Members keep Γ's order: survivors keep their places, new members are
// appended and removed ones are tombstoned (nil). Each member is keyed
// once, when it enters; a CFD whose key a live member already has is not
// added, so Γ stays duplicate-free as cfd.Dedup would leave it. Only the
// attributes RBR may eliminate are indexed.
type gammaSet struct {
	members []*cfd.CFD
	keys    []string // keys[i] is members[i]'s cfd.Key
	live    map[string]struct{}
	n       int // live members
	occ     map[string]*occurrences
}

// occurrences indexes one eliminable attribute in Γ.
type occurrences struct {
	members []int // positions of the members mentioning it, removed ones included
	// items is the number of items of live members that name it: a CFD
	// naming it on both sides counts twice.
	items int
}

func newGammaSet(dropAttrs []string) *gammaSet {
	occ := make(map[string]*occurrences, len(dropAttrs))
	for _, a := range dropAttrs {
		occ[a] = &occurrences{}
	}
	return &gammaSet{occ: occ}
}

// fill resets the set to gamma's distinct members, in order.
func (g *gammaSet) fill(gamma []*cfd.CFD) {
	clear(g.members)
	g.members, g.keys, g.n = g.members[:0], g.keys[:0], 0
	if g.live == nil {
		g.live = make(map[string]struct{}, len(gamma))
	} else {
		clear(g.live)
	}
	for _, o := range g.occ {
		o.members, o.items = o.members[:0], 0
	}
	for _, c := range gamma {
		g.insert(c)
	}
}

// insert appends c unless a live member has its key.
func (g *gammaSet) insert(c *cfd.CFD) {
	k := c.Key()
	if _, dup := g.live[k]; dup {
		return
	}
	g.live[k] = struct{}{}
	i := len(g.members)
	g.members, g.keys = append(g.members, c), append(g.keys, k)
	g.n++
	g.note(i, c.LHS)
	g.note(i, c.RHS)
}

// note counts member i's items and indexes it under each eliminable
// attribute they name, once per attribute.
func (g *gammaSet) note(i int, items []cfd.Item) {
	for _, it := range items {
		if o := g.occ[it.Attr]; o != nil {
			o.items++
			if len(o.members) == 0 || o.members[len(o.members)-1] != i {
				o.members = append(o.members, i)
			}
		}
	}
}

// remove tombstones live member i.
func (g *gammaSet) remove(i int) {
	c := g.members[i]
	g.members[i] = nil
	delete(g.live, g.keys[i])
	g.n--
	for _, items := range [2][]cfd.Item{c.LHS, c.RHS} {
		for _, it := range items {
			if o := g.occ[it.Attr]; o != nil {
				o.items--
			}
		}
	}
}

// eliminate removes attribute a from Γ: Drop(Γ, a) = Res(Γ, a) ∪ Γ[U − {a}].
// The members mentioning a leave, then each A-resolvent of a producer (RHS
// a) and a consumer (a on the LHS), in producer × consumer order, enters
// unless a live member or an earlier resolvent has its key. When truncate
// is true no resolvents are added (heuristic mode).
func (g *gammaSet) eliminate(a string, truncate bool) {
	o := g.occ[a]
	var producers, consumers []*cfd.CFD
	for _, i := range o.members {
		c := g.members[i]
		if c == nil {
			continue
		}
		if !c.Equality {
			if c.RHS[0].Attr == a {
				producers = append(producers, c)
			}
			if _, onLHS := c.LHSItem(a); onLHS {
				consumers = append(consumers, c)
			}
		}
		g.remove(i)
	}
	o.members = o.members[:0]
	if !truncate {
		for _, p := range producers {
			for _, q := range consumers {
				if r := resolvent(p, q, a); r != nil {
					g.insert(r)
				}
			}
		}
	}
}

// slice returns the live members in order.
func (g *gammaSet) slice() []*cfd.CFD {
	out := make([]*cfd.CFD, 0, g.n)
	for _, c := range g.members {
		if c != nil {
			out = append(out, c)
		}
	}
	return out
}

// runRBR computes RBR(Γ, dropAttrs): a cover of Γ+ restricted to the
// attributes outside dropAttrs (Proposition 4.4), free of duplicates.
// truncated reports that the maxCover heuristic fired, in which case the
// result is a subset of a cover rather than a full cover.
func runRBR(u implication.Universe, gamma []*cfd.CFD, dropAttrs []string, cfg rbrConfig) (out []*cfd.CFD, truncated bool, err error) {
	g := newGammaSet(dropAttrs)
	g.fill(gamma)
	remaining := slices.Clone(dropAttrs)
	// One implication session per worker serves every block-pruning
	// MinCover across all elimination rounds, so the closure's compiled
	// buffers are reused across the whole RBR run. Worker w mints
	// sessions[w] on first use.
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
			for i := 1; i < len(remaining); i++ {
				ci, cn := g.occ[remaining[i]].items, g.occ[remaining[next]].items
				if ci < cn || (ci == cn && remaining[i] < remaining[next]) {
					next = i
				}
			}
		}
		a := remaining[next]
		remaining = append(remaining[:next], remaining[next+1:]...)
		truncate := cfg.maxCover > 0 && g.n > cfg.maxCover
		if truncate {
			truncated = true
		}
		before := g.n
		g.eliminate(a, truncate)
		if grew := g.n - before; grew > 0 {
			sinceLastPrune += grew
		}
		if cfg.blockSize > 0 && sinceLastPrune >= cfg.blockSize && g.n > cfg.blockSize {
			pruned, err := blockMinCover(ctx, u, sessions, g.slice(), cfg.blockSize)
			if err != nil {
				return nil, false, err
			}
			g.fill(pruned)
			sinceLastPrune = 0
		}
	}
	return g.slice(), truncated, nil
}

// blockMinCover partitions Γ into blocks of size k and replaces each block
// with its minimal cover — the §4.3 optimization that sheds redundant CFDs
// in O(|Γ|·k²) implication tests instead of O(|Γ|³). Blocks are mutually
// independent, so they fan out with one worker per session, worker w
// running on sessions[w] (minted over u on first use); the result is
// assembled in block order, making the output identical at every
// parallelism level. Two blocks may reduce to the same CFD; the caller's
// rebuild of the working set drops the later copy.
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
	return out, nil
}
