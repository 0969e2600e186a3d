package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"cfdprop/internal/propagation"
	"cfdprop/internal/rel"
	"cfdprop/internal/spec"
)

// Wire format of the propagation daemon. Every request body is strict
// JSON (unknown fields are rejected — see DecodeCheckRequest), every
// response is JSON, and errors come back as {"error": "..."} with a
// meaningful status code. The degradation contract lives in the status
// codes: 429 + Retry-After when admission sheds load, 503 + Retry-After
// while draining, 500 for a request that panicked (the server survives).

// Budget headers accepted on /v1/check, /v1/cover and /v1/implies. A body
// field, when set, wins over the header; the header fills the gap for
// clients (curl, load balancers) that cannot or do not touch the body.
const (
	// HeaderDeadlineMillis bounds the request's wall-clock time in
	// milliseconds; expiry surfaces as "stopped": "deadline" on /v1/check
	// and as 504 on the all-or-nothing endpoints.
	HeaderDeadlineMillis = "X-Propcfd-Deadline-Ms"
	// HeaderChaseSteps bounds the chase-step budget per checked CFD;
	// exhaustion surfaces as "stopped": "chase step budget".
	HeaderChaseSteps = "X-Propcfd-Chase-Steps"
)

// CheckRequest asks whether each of a batch of view CFDs is propagated:
// Σ |=V φ for every φ in Phis, against either an inline Spec or a
// registered universe fingerprint.
type CheckRequest struct {
	// Spec is an inline problem (relations, cfds, view) in the
	// internal/spec JSON format. Exactly one of Spec and Universe must be
	// set. Inline specs are fingerprinted and cached too, so repeated
	// requests with the same (Σ, V) reuse the compiled universe.
	Spec *spec.Problem `json:"spec,omitempty"`
	// Universe is a fingerprint previously returned by /v1/universe (or
	// any response's "universe" field).
	Universe string `json:"universe,omitempty"`

	// Phi is the single view CFD to check, in the text syntax. For a
	// batch, use Phis; setting both checks Phi first.
	Phi  string   `json:"phi,omitempty"`
	Phis []string `json:"phis,omitempty"`

	// General forces the general (finite-domain) setting on or off; unset
	// selects it automatically from the schema.
	General *bool `json:"general,omitempty"`
	// WantCounterexample requests a concrete witness database per refuted
	// CFD.
	WantCounterexample bool `json:"want_counterexample,omitempty"`
	// Parallelism is the per-request worker count (0 = server default,
	// capped by the server).
	Parallelism int `json:"parallelism,omitempty"`
	// MaxInstantiations caps the finite-domain enumeration per pair
	// (0 = library default).
	MaxInstantiations int `json:"max_instantiations,omitempty"`
	// DeadlineMillis bounds the whole request's wall-clock time; the
	// server caps it at its configured maximum and applies that maximum
	// when no deadline is given.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
	// MaxChaseSteps bounds the chase-step budget of each checked CFD.
	MaxChaseSteps int64 `json:"max_chase_steps,omitempty"`
}

// allPhis returns the batch in check order.
func (r *CheckRequest) allPhis() []string {
	if r.Phi == "" {
		return r.Phis
	}
	return append([]string{r.Phi}, r.Phis...)
}

// validate enforces the request invariants shared by the decoder and the
// fuzz target.
func (r *CheckRequest) validate() error {
	if (r.Spec == nil) == (r.Universe == "") {
		return errors.New("exactly one of spec and universe must be set")
	}
	if len(r.allPhis()) == 0 {
		return errors.New("phi or phis is required")
	}
	if r.Parallelism < 0 || r.MaxInstantiations < 0 || r.DeadlineMillis < 0 || r.MaxChaseSteps < 0 {
		return errors.New("parallelism, max_instantiations, deadline_ms and max_chase_steps must be non-negative")
	}
	return nil
}

// options maps the request onto propagation.Options — the PR 3 contract:
// the context carries the (capped) request deadline, MaxChaseSteps is a
// deterministic per-φ budget, and every stop surfaces as Result.Stopped
// rather than an error.
func (r *CheckRequest) options(general bool) propagation.Options {
	return propagation.Options{
		General:            general,
		WantCounterexample: r.WantCounterexample,
		Parallelism:        r.Parallelism,
		MaxInstantiations:  r.MaxInstantiations,
		MaxChaseSteps:      r.MaxChaseSteps,
	}
}

// DecodeCheckRequest parses and validates a /v1/check body. The decoder is
// strict — unknown fields and trailing garbage are errors — so a typo'd
// budget field fails loudly instead of silently running unbounded. This is
// the entry point FuzzDecodeRequest drives.
func DecodeCheckRequest(data []byte) (*CheckRequest, error) {
	var r CheckRequest
	if err := decodeStrict(data, &r); err != nil {
		return nil, err
	}
	if err := r.validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// decodeStrict is the one JSON decoding policy for every request type.
func decodeStrict(data []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// applyBudgetHeaders fills budget fields the body left unset from the
// request headers. A malformed header is an error (not silently ignored:
// the caller believed they set a budget).
func applyBudgetHeaders(h http.Header, deadlineMillis, maxChaseSteps *int64) error {
	for _, f := range []struct {
		name string
		dst  *int64
	}{
		{HeaderDeadlineMillis, deadlineMillis},
		{HeaderChaseSteps, maxChaseSteps},
	} {
		v := h.Get(f.name)
		if v == "" || *f.dst != 0 {
			continue
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			return fmt.Errorf("header %s: not a non-negative integer: %q", f.name, v)
		}
		*f.dst = n
	}
	return nil
}

// CheckResult is the wire form of one propagation.Result. It is built
// exclusively through ResultOf, so the daemon's answers and a direct
// library call serialize byte-identically — the crash suite's equivalence
// check depends on that.
type CheckResult struct {
	Phi        string `json:"phi"`
	Propagated bool   `json:"propagated"`
	// Stopped mirrors Result.Stopped via its text form ("cancelled",
	// "deadline", "chase step budget"); omitted when the check completed.
	Stopped        propagation.StopReason `json:"stopped,omitempty"`
	Truncated      bool                   `json:"truncated,omitempty"`
	PairsChecked   int                    `json:"pairs_checked"`
	Instantiations int                    `json:"instantiations,omitempty"`
	// MemoHits / MemoMisses count pair checks served from (resp. stored
	// into) the universe's verdict memo.
	MemoHits       int               `json:"memo_hits,omitempty"`
	MemoMisses     int               `json:"memo_misses,omitempty"`
	Counterexample []WitnessRelation `json:"counterexample,omitempty"`
}

// WitnessRelation is one relation of a counterexample source database,
// tuples in canonical sorted order.
type WitnessRelation struct {
	Name   string     `json:"name"`
	Attrs  []string   `json:"attrs"`
	Tuples [][]string `json:"tuples"`
}

// ResultOf converts a library Result into its wire form.
func ResultOf(phi string, res *propagation.Result, db *rel.DBSchema) CheckResult {
	out := CheckResult{
		Phi:            phi,
		Propagated:     res.Propagated,
		Stopped:        res.Stopped,
		Truncated:      res.Truncated,
		PairsChecked:   res.PairsChecked,
		Instantiations: res.Instantiations,
		MemoHits:       res.MemoHits,
		MemoMisses:     res.MemoMisses,
	}
	if res.Counterexample != nil {
		for _, name := range db.Names() {
			in := res.Counterexample.Instance(name)
			if in == nil || in.Len() == 0 {
				continue
			}
			wr := WitnessRelation{Name: name, Attrs: in.Schema.AttrNames()}
			for _, t := range in.Sorted() {
				wr.Tuples = append(wr.Tuples, []string(t))
			}
			out.Counterexample = append(out.Counterexample, wr)
		}
	}
	return out
}

// CheckResponse answers /v1/check.
type CheckResponse struct {
	// Universe is the fingerprint of the compiled (Σ, V); send it back as
	// CheckRequest.Universe to skip re-sending (and re-compiling) the spec.
	Universe string `json:"universe"`
	// Generation counts Σ edits on this universe handle (starts at 1).
	Generation uint64        `json:"generation"`
	Results    []CheckResult `json:"results"`
}

// CoverRequest asks for the minimal propagation cover of a universe
// (infinite-domain setting, like propcfd's default mode).
type CoverRequest struct {
	Spec     *spec.Problem `json:"spec,omitempty"`
	Universe string        `json:"universe,omitempty"`
	// MaxCoverSize switches to the polynomial heuristic (0 = exact).
	// Only the exact cover is memoized and kept warm.
	MaxCoverSize   int   `json:"max_cover_size,omitempty"`
	Parallelism    int   `json:"parallelism,omitempty"`
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
}

func (r *CoverRequest) validate() error {
	if (r.Spec == nil) == (r.Universe == "") {
		return errors.New("exactly one of spec and universe must be set")
	}
	if r.MaxCoverSize < 0 || r.Parallelism < 0 || r.DeadlineMillis < 0 {
		return errors.New("max_cover_size, parallelism and deadline_ms must be non-negative")
	}
	return nil
}

// CoverResponse answers /v1/cover.
type CoverResponse struct {
	Universe   string `json:"universe"`
	Generation uint64 `json:"generation"`
	ViewSchema string `json:"view_schema"`
	// Cover holds the propagated CFDs in the text syntax. Exact reports
	// whether it is a true minimal cover (single-SPC views) or the sound
	// union heuristic.
	Cover       []string `json:"cover"`
	Exact       bool     `json:"exact"`
	AlwaysEmpty bool     `json:"always_empty,omitempty"`
	Truncated   bool     `json:"truncated,omitempty"`
	// Cached reports the cover came from the warm (Σ, V) cache rather
	// than a fresh computation.
	Cached bool `json:"cached,omitempty"`
}

// ImpliesRequest asks whether the universe's memoized cover implies a view
// CFD — the warm-session fast path for repeated queries against one (Σ, V).
type ImpliesRequest struct {
	Spec           *spec.Problem `json:"spec,omitempty"`
	Universe       string        `json:"universe,omitempty"`
	Phi            string        `json:"phi"`
	DeadlineMillis int64         `json:"deadline_ms,omitempty"`
}

func (r *ImpliesRequest) validate() error {
	if (r.Spec == nil) == (r.Universe == "") {
		return errors.New("exactly one of spec and universe must be set")
	}
	if r.Phi == "" {
		return errors.New("phi is required")
	}
	if r.DeadlineMillis < 0 {
		return errors.New("deadline_ms must be non-negative")
	}
	return nil
}

// ImpliesResponse answers /v1/implies. For single-SPC views in the
// infinite-domain setting the answer is exact (cover |= φ ⇔ Σ |=V φ, §4);
// for unions the cover is only sound, so Implied true is definitive and
// false means "not derivable from the heuristic cover".
type ImpliesResponse struct {
	Universe   string `json:"universe"`
	Generation uint64 `json:"generation"`
	Implied    bool   `json:"implied"`
	Exact      bool   `json:"exact"`
}

// UniverseRequest registers a (Σ, V) universe ahead of time.
type UniverseRequest struct {
	Spec *spec.Problem `json:"spec"`
}

// UniverseResponse describes a registered universe.
type UniverseResponse struct {
	Universe   string `json:"universe"`
	Generation uint64 `json:"generation"`
	ViewSchema string `json:"view_schema"`
	SigmaSize  int    `json:"sigma_size"`
}

// SigmaRequest replaces a registered universe's Σ (PUT
// /v1/universe/{fp}/sigma). The new Σ is diffed against the current one
// and the delta applied as a PATCH applies its own: the verdict memo
// migrates and the cover session transfers. The response
// (SigmaPatchResponse) carries the NEW fingerprint — universes are
// content-addressed, so an edit re-keys the entry — with the generation
// bumped; the old fingerprint stops resolving.
type SigmaRequest struct {
	CFDs []string `json:"cfds"`
}

// SigmaPatchRequest applies a Σ delta to a registered universe (PATCH
// /v1/universe/{fp}/sigma). Like the PUT replacement, a patch migrates
// the verdict memo (entries the edit provably cannot affect carry forward)
// and transfers the cover session, which re-covers only the touched
// relations. Removals match Σ members by normalized form; removing a CFD
// not in Σ is an error and the universe is left untouched.
type SigmaPatchRequest struct {
	Add    []string `json:"add,omitempty"`
	Remove []string `json:"remove,omitempty"`
}

func (r *SigmaPatchRequest) validate() error {
	if len(r.Add) == 0 && len(r.Remove) == 0 {
		return errors.New("at least one of add and remove must be non-empty")
	}
	return nil
}

// SigmaPatchResponse answers PUT and PATCH /v1/universe/{fp}/sigma: the
// successor universe plus the memo-carryover tallies of this edit's
// migration.
type SigmaPatchResponse struct {
	UniverseResponse
	Carried propagation.CarryStats `json:"carried"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}
