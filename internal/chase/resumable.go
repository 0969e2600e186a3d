package chase

import (
	"cfdprop/internal/cfd"
	"cfdprop/internal/faultinject"
	"cfdprop/internal/sym"
)

// Resumable is a chase frozen at the fixpoint of its instantiation-
// independent prefix, ready to be extended with per-assignment bindings
// and rolled back. The factorised enumeration in internal/propagation
// drives it as:
//
//	rs, err := ci.RunPrefix(sigma)      // shared prefix, chased once
//	for each assignment {
//	    m := rs.Mark()
//	    ci.St.Bind(root, value) ...     // only the enumerated roots
//	    err := rs.Extend()              // chase just the consequences
//	    ... inspect the state ...
//	    rs.Rewind(m)                    // O(suffix), not O(tableau)
//	}
//	rs.Release()
//
// Marks nest (odometer order rewinds only the changed radix suffix). The
// base occurrence index built by RunPrefix is never mutated after the
// prefix: suffix unions carry member lists into a per-suffix overlay whose
// mutations are journaled, so Rewind restores the index exactly.
//
// Run drains the same worklist, seeded with every dependency. It never
// rewinds, so it has no base: its whole index is the overlay, and its
// unions are not journaled.
type Resumable struct {
	ci  *Inst
	cs  []compiled
	occ map[int][]int // frozen after RunPrefix; nil under Run

	overlay map[int][]int // suffix additions, keyed by winning root
	ops     []overlayOp   // journal of overlay mutations, for Rewind

	queue []int
	inQ   []bool
}

// overlayOp records one overlay append so Rewind can truncate it:
// overlay[root] had prevLen entries before the suffix union extended it.
type overlayOp struct {
	root    int
	prevLen int
}

// Mark is a rewind point for a Resumable: the term-state mark plus the
// overlay journal length.
type Mark struct {
	st  sym.Mark
	ops int
}

// RunPrefix chases the instance to fixpoint exactly like Run, then keeps
// the compiled dependency set, the occurrence index, event tracking and
// undo journaling alive so the chase can be extended and rewound. Errors
// are Run's (ErrUndefined, ErrStepBudget, context errors); on error no
// Resumable is returned and tracking is turned back off.
func (ci *Inst) RunPrefix(sigma []*cfd.CFD) (*Resumable, error) {
	if err := ci.Run(sigma); err != nil {
		return nil, err
	}
	// Re-compile after the prefix: Run's compiled set is local to it, and
	// recompiling against the post-prefix state is cheap relative to the
	// enumeration the Resumable exists to serve.
	cs, err := ci.compile(sigma)
	if err != nil {
		return nil, err
	}
	occ := ci.buildOcc(cs)
	ci.St.TrackEvents(true)
	ci.St.BeginUndo()
	return &Resumable{
		ci:      ci,
		cs:      cs,
		occ:     occ,
		overlay: make(map[int][]int),
		inQ:     make([]bool, len(cs)),
	}, nil
}

// Mark records the current suffix position as a rewind point.
func (rs *Resumable) Mark() Mark {
	return Mark{st: rs.ci.St.MarkNow(), ops: len(rs.ops)}
}

// Rewind rolls the chase back to a mark: overlay appends recorded since
// are truncated in reverse order, then the term state is rewound (binds
// and unions inverted, conflict cleared). Rewinding past a failed Extend
// restores a fully usable state.
func (rs *Resumable) Rewind(m Mark) {
	faultinject.Hit(faultinject.SiteChaseRewind)
	for i := len(rs.ops) - 1; i >= m.ops; i-- {
		op := rs.ops[i]
		if op.prevLen == 0 {
			delete(rs.overlay, op.root)
		} else {
			rs.overlay[op.root] = rs.overlay[op.root][:op.prevLen]
		}
	}
	rs.ops = rs.ops[:m.ops]
	rs.ci.St.Rewind(m.st)
}

// Extend chases the consequences of the binds the caller just performed on
// the term state, re-examining only dependencies whose premise mentions a
// changed class. Error semantics match Run: ErrUndefined means this
// assignment's chase is undefined (the caller counts it and rewinds);
// ErrStepBudget and context errors mean "stopped early".
func (rs *Resumable) Extend() error {
	rs.queue = rs.queue[:0]
	clear(rs.inQ)
	rs.drainEvents()
	return rs.drain()
}

// drain is the one worklist loop of the chase: it pops dependencies until
// the queue runs dry, applying each and enqueueing the dependencies its
// journal events make interesting. Every pop passes the checkpoint, so a
// step budget meters pops.
func (rs *Resumable) drain() error {
	ci := rs.ci
	for qh := 0; qh < len(rs.queue); qh++ {
		if err := ci.checkpoint(qh); err != nil {
			return err
		}
		i := rs.queue[qh]
		rs.inQ[i] = false
		cc := rs.cs[i]
		if err := ci.apply(cc.c, cc.lhs, cc.rhs, cc.rows); err != nil {
			return err
		}
		rs.drainEvents()
	}
	return nil
}

// drainEvents consumes the pending term-state journal: binds enqueue the
// interested dependencies; unions additionally carry the absorbed class's
// interest lists into the overlay (the base index is never touched, so
// Rewind can restore it by truncation alone). Stale base entries under an
// absorbed root are harmless — an absorbed variable is never a find root
// again within this suffix, so those lists are never consulted.
func (rs *Resumable) drainEvents() {
	ci := rs.ci
	for _, ev := range ci.St.Events() {
		if ev.Merged >= 0 {
			base, over := rs.occ[ev.Merged], rs.overlay[ev.Merged]
			if len(base)+len(over) == 0 {
				continue
			}
			rs.enqueue(base)
			rs.enqueue(over)
			into := rs.overlay[ev.Root]
			if rs.occ != nil { // Run never rewinds
				rs.ops = append(rs.ops, overlayOp{root: ev.Root, prevLen: len(into)})
			}
			rs.overlay[ev.Root] = append(append(into, base...), over...)
		} else {
			rs.enqueue(rs.occ[ev.Root])
			rs.enqueue(rs.overlay[ev.Root])
		}
	}
	ci.St.ClearEvents()
}

func (rs *Resumable) enqueue(list []int) {
	for _, i := range list {
		if !rs.inQ[i] {
			rs.inQ[i] = true
			rs.queue = append(rs.queue, i)
		}
	}
}

// Release turns event tracking and undo journaling back off. The instance
// and state remain valid at whatever suffix position they hold; callers
// normally Rewind to the post-prefix mark first.
func (rs *Resumable) Release() {
	rs.ci.St.EndUndo()
	rs.ci.St.TrackEvents(false)
}
