package implication

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cfdprop/internal/cfd"
	"cfdprop/internal/faultinject"
	"cfdprop/internal/parutil"
)

// ErrPoolClosed is returned by Borrow/BorrowCtx (and the query helpers
// built on them) once Close has been called on the pool.
var ErrPoolClosed = errors.New("implication: pool closed")

// Pool is a sharded, goroutine-safe front-end over Session: N independent
// sessions per universe, one per worker, so concurrent implication work
// never contends on the chase hot path (Sessions themselves are not
// goroutine-safe). Σ is stored once in the pool and compiled into each
// shard lazily on Borrow, tracked by a generation counter, so SetSigma
// compiles one shard and only the shards actually used pay compilation.
// SetSigma is the pool's only Σ mutator.
//
// Concurrency model: Borrow hands out exclusive ownership of one Session;
// Return gives it back. Borrow blocks until a shard is free. Implies and
// MinCover are safe to call from any number of goroutines; MinCover never
// blocks waiting for more than one shard (extra shards are acquired
// opportunistically), so concurrent MinCover calls cannot deadlock.
//
// Fault tolerance: every path that takes a shard out of the channel —
// Borrow, Return, Implies, MinCover — restores it even when the work on it
// panics (the shard is tagged dirty so the next Borrow recompiles it), so
// an injected or genuine fault can never leak a shard and shrink the pool.
type Pool struct {
	u        Universe
	sessions chan *Session
	size     int

	mu      sync.Mutex
	sigma   []*cfd.CFD // normalized pool Σ (nil until SetSigma)
	gen     uint64     // bumped by SetSigma; 0 means "empty Σ"
	created int        // sessions minted so far (≤ size)
	closed  bool       // set by Close; new Borrows are refused

	ctx atomic.Pointer[context.Context] // stamped onto borrowed shards
}

// NewPool builds a pool of up to n sessions over the universe; n <= 0
// selects runtime.GOMAXPROCS(0). Shards are minted lazily on first use,
// so a pool sized for the machine costs nothing until work actually fans
// out.
func NewPool(u Universe, n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{u: u.indexed(), size: n, sessions: make(chan *Session, n)}
}

// SetContext installs a cancellation context stamped onto every shard at
// Borrow time (and consulted by BorrowCtx while blocking); queries on
// borrowed shards then return the context's error once it is cancelled.
// Pass nil to clear.
func (p *Pool) SetContext(ctx context.Context) {
	if ctx == nil {
		p.ctx.Store(nil)
		return
	}
	p.ctx.Store(&ctx)
}

func (p *Pool) context() context.Context {
	if c := p.ctx.Load(); c != nil {
		return *c
	}
	return nil
}

// take hands out a shard, minting a new one while the pool is below
// capacity; it blocks only once all size shards exist and are out.
func (p *Pool) take() *Session {
	if s, ok := p.tryTake(); ok {
		return s
	}
	return <-p.sessions
}

// takeCtx is take that gives up when ctx is cancelled while blocking, and
// refuses immediately once the pool is closed.
func (p *Pool) takeCtx(ctx context.Context) (*Session, error) {
	if p.isClosed() {
		return nil, ErrPoolClosed
	}
	if s, ok := p.tryTake(); ok {
		return s, nil
	}
	if ctx == nil {
		return <-p.sessions, nil
	}
	select {
	case s := <-p.sessions:
		return s, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// tryTake is take without blocking; it reports failure when every shard
// exists and is out (or the pool is closed).
func (p *Pool) tryTake() (*Session, bool) {
	select {
	case s := <-p.sessions:
		return s, true
	default:
	}
	p.mu.Lock()
	if p.created < p.size && !p.closed {
		p.created++
		p.mu.Unlock()
		return NewSession(p.u), true
	}
	p.mu.Unlock()
	return nil, false
}

// isClosed reports whether Close has been called.
func (p *Pool) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// Close marks the pool closed: subsequent Borrow/BorrowCtx/Implies/
// MinCover calls fail with ErrPoolClosed and no new shards are minted.
// Shards already borrowed stay valid and must still be Returned (Return on
// a closed pool is safe); use Drain to wait for them. Close is idempotent
// and safe to call concurrently with borrows — a borrow that entered
// before Close completes may still succeed.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
}

// Drain waits until every shard minted by the pool has been returned, or
// ctx expires. It requires Close to have been called first (otherwise new
// borrows could starve it forever) and is terminal: collected shards are
// released for garbage collection, not re-enqueued. The warm-pool eviction
// path uses Close + Drain to prove no request still holds cached state
// before dropping the entry.
func (p *Pool) Drain(ctx context.Context) error {
	p.mu.Lock()
	closed, want := p.closed, p.created
	p.mu.Unlock()
	if !closed {
		return errors.New("implication: Drain requires Close first")
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	for have := 0; have < want; have++ {
		select {
		case <-p.sessions:
		case <-done:
			return fmt.Errorf("implication: pool drain: %d of %d shards still borrowed: %w",
				want-have, want, ctx.Err())
		}
	}
	return nil
}

// Size returns the number of shards.
func (p *Pool) Size() int { return p.size }

// SetSigma stores Σ as the pool's compiled set — the only way to change
// it. It validates eagerly (by compiling into one shard); the remaining
// shards recompile lazily on their next Borrow. Like Session.SetSigma,
// CFDs on other relations are dropped.
func (p *Pool) SetSigma(sigma []*cfd.CFD) error {
	if p.isClosed() {
		return ErrPoolClosed
	}
	// Copy: NormalizeAll returns the input slice when already normal, and
	// lagging shards compile the pool Σ later, so it must not alias a
	// slice the caller may keep mutating.
	normalized := append([]*cfd.CFD(nil), cfd.NormalizeAll(sigma)...)
	s := p.take()
	if err := s.inner.setSigma(normalized); err != nil {
		s.poolDirty = true
		p.sessions <- s
		return err
	}
	// The shard's generation is stamped in the same critical section that
	// publishes the Σ it compiled, so poolGen == gen always means the
	// shard holds the pool Σ, however SetSigma calls interleave.
	p.mu.Lock()
	p.sigma = normalized
	p.gen++
	s.poolGen = p.gen
	p.mu.Unlock()
	s.poolDirty = false
	p.sessions <- s
	return nil
}

// Borrow hands out exclusive ownership of one shard, with the pool's Σ
// compiled and the pool's context (if any) installed. It blocks only when
// all shards are out. A shard recompile failure — possible when the pool Σ
// was planted without going through SetSigma's validation — surfaces as an
// error, with the shard safely back in the pool.
func (p *Pool) Borrow() (*Session, error) {
	return p.BorrowCtx(p.context())
}

// BorrowCtx is Borrow that also stops blocking (returning the context's
// error) when ctx is cancelled while waiting for a free shard. A nil ctx
// falls back to the pool's context.
func (p *Pool) BorrowCtx(ctx context.Context) (*Session, error) {
	if ctx == nil {
		ctx = p.context()
	}
	s, err := p.takeCtx(ctx)
	if err != nil {
		return nil, err
	}
	if err := p.prepare(s, ctx); err != nil {
		return nil, err
	}
	return s, nil
}

// prepare refreshes a taken shard and stamps the context onto it. On any
// failure — including a panic out of recompilation — the shard goes back
// to the pool tagged dirty before the error (or re-panic) propagates.
func (p *Pool) prepare(s *Session, ctx context.Context) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.poolDirty = true
			p.sessions <- s
			panic(r)
		}
		if err != nil {
			s.poolDirty = true
			p.sessions <- s
		}
	}()
	faultinject.Hit(faultinject.SitePoolBorrow)
	if err := p.refresh(s); err != nil {
		return err
	}
	s.SetContext(ctx)
	return nil
}

// Return gives a borrowed shard back. Callers that changed the session's
// Σ (e.g. by running Session.MinCover on it) must not mark it themselves —
// Pool methods that do so tag the session dirty, and Borrow recompiles.
// Return never loses the shard: if the faultinject seam (or anything else)
// panics, the shard re-enters the pool dirty before the panic propagates.
func (p *Pool) Return(s *Session) {
	defer func() {
		if r := recover(); r != nil {
			s.poolDirty = true
			p.sessions <- s
			panic(r)
		}
	}()
	faultinject.Hit(faultinject.SitePoolReturn)
	s.SetContext(nil)
	s.SetBudget(nil)
	p.sessions <- s
}

// refresh brings a stale shard — one behind the pool's Σ generation, or
// left dirty by a borrower — up to date by recompiling the pool Σ. A
// compile failure is reported rather than panicking: it cannot happen for
// a Σ that passed SetSigma (compilation is deterministic in (universe,
// Σ)), but a caller that bypassed validation must get an error, not a
// crash.
func (p *Pool) refresh(s *Session) error {
	p.mu.Lock()
	sigma, gen := p.sigma, p.gen
	p.mu.Unlock()
	if s.poolGen == gen && !s.poolDirty {
		return nil
	}
	if err := s.inner.setSigma(sigma); err != nil {
		return fmt.Errorf("implication: pool shard recompile failed: %w", err)
	}
	s.poolGen = gen
	s.poolDirty = false
	return nil
}

// Implies reports whether the pool's Σ implies φ. Safe for concurrent use;
// each call runs on one exclusively borrowed shard. A panic during the
// query (e.g. an injected fault) still returns the shard to the pool.
func (p *Pool) Implies(phi *cfd.CFD) (bool, error) {
	s, err := p.Borrow()
	if err != nil {
		return false, err
	}
	defer p.returnRecovered(s)
	return s.Implies(phi)
}

// returnRecovered is Return for defer sites that may unwind through a
// panic: the shard is reset and handed back dirty, then the panic resumes.
func (p *Pool) returnRecovered(s *Session) {
	if r := recover(); r != nil {
		s.Reset()
		s.poolDirty = true
		p.sessions <- s
		panic(r)
	}
	p.Return(s)
}

// MinCover computes the minimal cover of sigma exactly as Session.MinCover
// does — same tombstone semantics, byte-identical output order — but fans
// both quadratic phases across shards:
//
//  1. normalize/dedup on one shard, then left-reduce every candidate in
//     parallel against the unreduced work set. Each candidate's reduction
//     is order-independent (see Session.leftReduceOne), so its reduced
//     form is the one Session.MinCover computes;
//  2. screen every candidate in parallel against the full reduced set
//     minus itself. A candidate the screen does NOT imply can never become
//     redundant later — the serial loop tests it against a subset of the
//     screen's premises (earlier tombstones removed), and implication is
//     monotone in the premise set — so only screen survivors re-enter
//  3. the serial confirmation pass, which replays the reference tombstone
//     loop in candidate order over the (usually short) maybe-redundant
//     list.
//
// Both parallel phases use however many shards are free at call time (at
// least the one running the call), so concurrent MinCover calls degrade
// gracefully instead of deadlocking. A panic inside a worker is recovered
// at the worker boundary and surfaces as an error; every shard returns to
// the pool regardless.
func (p *Pool) MinCover(sigma []*cfd.CFD) ([]*cfd.CFD, error) {
	ctx := p.context()
	s0, err := p.takeCtx(ctx) // raw: compiles its own work set below
	if err != nil {
		return nil, err
	}
	s0.SetContext(ctx)
	defer p.returnRecovered(s0)

	work, err := s0.minCoverNormalize(sigma)
	if err != nil {
		return nil, err
	}
	oneShard := func() ([]*cfd.CFD, error) {
		work, err := s0.minCoverReduce(work)
		if err != nil {
			return nil, err
		}
		return s0.minCoverRedundancy(work, nil)
	}
	if p.size == 1 || len(work) < 2 {
		return oneShard()
	}

	// Grab extra free shards opportunistically, compiled with the work set.
	extra := make([]*Session, 0, p.size-1)
	for len(extra) < p.size-1 && len(extra)+1 < len(work) {
		s, ok := p.tryTake()
		if !ok {
			break
		}
		s.poolDirty = true // compiled with work, not the pool Σ
		if err := s.inner.setSigma(work); err != nil {
			// Unreachable: work compiled in minCoverNormalize on s0.
			p.Return(s)
			for _, e := range extra {
				p.Return(e)
			}
			return nil, err
		}
		s.SetContext(ctx)
		extra = append(extra, s)
	}
	defer func() {
		for _, e := range extra {
			p.Return(e)
		}
	}()
	if len(extra) == 0 {
		return oneShard()
	}

	// fanOut runs job(sess, i) for every candidate index across s0 and the
	// extra shards. Each worker recovers its own panics so a fault in one
	// shard's query surfaces as a parutil.PanicError on that candidate
	// instead of crashing the process or deadlocking the WaitGroup; the
	// faulted shard is Reset so it re-enters the pool quiescent (already
	// tagged dirty).
	errs := make([]error, len(work))
	fanOut := func(phase string, job func(sess *Session, i int) error) {
		var next atomic.Int64
		var wg sync.WaitGroup
		worker := func(sess *Session) {
			defer wg.Done()
			i := -1
			defer func() {
				if r := recover(); r != nil {
					if i >= 0 && i < len(work) {
						errs[i] = parutil.Recovered(fmt.Sprintf("implication: mincover %s panic on candidate %d", phase, i), r)
					}
					sess.Reset()
				}
			}()
			for {
				i = int(next.Add(1) - 1)
				if i >= len(work) {
					sess.inner.setSkip(-1)
					return
				}
				errs[i] = job(sess, i)
			}
		}
		wg.Add(1 + len(extra))
		for _, e := range extra {
			go worker(e)
		}
		worker(s0)
		wg.Wait()
	}
	firstErr := func() error {
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}

	// Parallel left-reduction against the unreduced work set.
	reduced := make([]*cfd.CFD, len(work))
	fanOut("reduce", func(sess *Session, i int) error {
		r, err := sess.leftReduceOne(work[i])
		reduced[i] = r
		return err
	})
	if err := firstErr(); err != nil {
		return nil, err
	}
	copy(work, reduced)
	work = cfd.Dedup(work)
	// Recompile every shard with the reduced set for the screen.
	if err := s0.inner.setSigma(work); err != nil {
		return nil, err
	}
	for _, e := range extra {
		if err := e.inner.setSigma(work); err != nil {
			return nil, err
		}
	}
	errs = errs[:len(work)]

	// Parallel screen: maybe[i] reports work[i] implied by work − {work[i]}.
	maybe := make([]bool, len(work))
	fanOut("screen", func(sess *Session, i int) error {
		sess.inner.setSkip(i)
		ok, err := sess.probe(work[i], &sess.stats.Redundancy)
		maybe[i] = ok
		return err
	})
	if err := firstErr(); err != nil {
		return nil, err
	}
	return s0.minCoverRedundancy(work, maybe)
}
