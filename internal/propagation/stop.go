package propagation

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"cfdprop/internal/chase"
)

// StopReason says why a Check returned before examining the full pair /
// instantiation space. It extends the Truncated precedent (a per-pair
// enumeration cap) to whole-call budgets: when Result.Stopped is set, the
// verdict "Propagated" only means "no counterexample found before the
// stop" — but a refutation found before the stop is always definitive and
// reported with Stopped clear.
type StopReason uint8

const (
	// StopNone: the check ran to completion.
	StopNone StopReason = iota
	// StopCancelled: Options.Context was cancelled.
	StopCancelled
	// StopDeadline: the wall-clock budget (Options.Deadline, or a deadline
	// already on Options.Context) expired.
	StopDeadline
	// StopChaseBudget: the shared Options.MaxChaseSteps budget ran out.
	StopChaseBudget
)

func (r StopReason) String() string {
	switch r {
	case StopNone:
		return "none"
	case StopCancelled:
		return "cancelled"
	case StopDeadline:
		return "deadline"
	case StopChaseBudget:
		return "chase step budget"
	}
	return "unknown"
}

// MarshalText encodes the reason as its String form, so Results (and the
// daemon's wire format) serialize stops symbolically instead of as bare
// integers that would break if the enum were ever reordered.
func (r StopReason) MarshalText() ([]byte, error) {
	if r > StopChaseBudget {
		return nil, fmt.Errorf("propagation: unknown StopReason %d", uint8(r))
	}
	return []byte(r.String()), nil
}

// UnmarshalText decodes the String form produced by MarshalText.
func (r *StopReason) UnmarshalText(text []byte) error {
	switch s := string(text); s {
	case "", "none":
		*r = StopNone
	case "cancelled":
		*r = StopCancelled
	case "deadline":
		*r = StopDeadline
	case "chase step budget":
		*r = StopChaseBudget
	default:
		return fmt.Errorf("propagation: unknown stop reason %q", s)
	}
	return nil
}

// stopper carries a Check call's stop controls: the effective context
// (wrapping Options.Context with Options.Deadline when set) and the shared
// chase-step budget. One stopper serves every worker of the call — the
// budget is global, not per-worker: every worker draws its chase steps
// from the one pool.
type stopper struct {
	ctx    context.Context
	cancel context.CancelFunc
	done   <-chan struct{}
	steps  *atomic.Int64
}

// newStopper builds the call's stopper, or nil when no stop control is
// configured (the common case pays nothing).
func newStopper(opts Options) *stopper {
	if opts.Context == nil && opts.Deadline <= 0 && opts.MaxChaseSteps <= 0 {
		return nil
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	sp := &stopper{}
	if opts.Deadline > 0 {
		ctx, sp.cancel = context.WithTimeout(ctx, opts.Deadline)
	}
	sp.ctx = ctx
	sp.done = ctx.Done()
	if opts.MaxChaseSteps > 0 {
		sp.steps = new(atomic.Int64)
		sp.steps.Store(opts.MaxChaseSteps)
	}
	return sp
}

// release frees the deadline timer; call once when the Check returns.
func (sp *stopper) release() {
	if sp.cancel != nil {
		sp.cancel()
	}
}

// check reports whether a stop control has fired.
func (sp *stopper) check() StopReason {
	if sp.done != nil {
		select {
		case <-sp.done:
			return stopReasonOf(sp.ctx.Err())
		default:
		}
	}
	if sp.steps != nil && sp.steps.Load() < 0 {
		return StopChaseBudget
	}
	return StopNone
}

// errFor converts a fired reason into the error the chase layer would have
// produced, so both detection paths classify identically.
func (sp *stopper) errFor(r StopReason) error {
	if r == StopChaseBudget {
		return chase.ErrStepBudget
	}
	return sp.ctx.Err()
}

// stopReasonOf classifies an error bubbling out of the chase layer as a
// stop, or StopNone for genuine errors.
func stopReasonOf(err error) StopReason {
	switch {
	case err == nil:
		return StopNone
	case errors.Is(err, chase.ErrStepBudget):
		return StopChaseBudget
	case errors.Is(err, context.DeadlineExceeded):
		return StopDeadline
	case errors.Is(err, context.Canceled):
		return StopCancelled
	}
	return StopNone
}

// stopCheck is the nil-safe form of stopper.check for the Options copy
// threaded through the pair loops.
func (o Options) stopCheck() StopReason {
	if o.sp == nil {
		return StopNone
	}
	return o.sp.check()
}
