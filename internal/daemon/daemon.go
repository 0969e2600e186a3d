// Package daemon implements propcfdd, the long-lived CFD-propagation
// service: a plain HTTP/JSON front end over internal/propagation and
// internal/core that keeps compiled (Σ, V) universes — with warm
// implication sessions — cached across requests.
//
// Robustness contract:
//
//   - Admission control: a fixed in-flight budget with a short bounded
//     queue in front. Past that, requests shed with 429 + Retry-After
//     instead of piling up.
//   - Budgets: every request runs under a wall-clock deadline (capped by
//     the server) and an optional chase-step budget, mapped onto
//     propagation.Options; /v1/check reports stops in-band via "stopped".
//   - Panic isolation: a panicking request answers 500 and counts on
//     /statusz, whether it panicked on its own goroutine or in a library
//     worker that recovered the panic; the server and every other request
//     keep running.
//   - Graceful drain: BeginDrain flips readiness and refuses new work with
//     503 + Retry-After while in-flight requests complete.
//
// Incremental Σ edits: PUT /v1/universe/{fp}/sigma replaces a registered
// universe's Σ and PATCH applies an add/remove delta. A PUT is diffed
// against the current Σ, and both go through one successor constructor
// that keeps the warm state: the cover session re-covers only the touched
// relations, and the propagation memo migrates across the edit, so the
// next cover or check replays every pair verdict the edit could not have
// changed. The successor compiles fresh /v1/implies sessions from its own
// cover; the old entry's idle sessions go with it. Both answer with the
// carry-over (pairs/empty entries carried and dropped).
// /statusz exposes per-endpoint latency histograms with interpolated
// p50/p95/p99 plus cache and memo hit rates.
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"cfdprop/internal/cfd"
	"cfdprop/internal/faultinject"
	"cfdprop/internal/parutil"
	"cfdprop/internal/propagation"
	"cfdprop/internal/spec"
)

// Config sizes the server. The zero value selects the documented defaults.
type Config struct {
	// MaxInFlight is the number of requests computing concurrently.
	// Default: GOMAXPROCS.
	MaxInFlight int
	// MaxQueue is the number of requests allowed to wait for an in-flight
	// slot. Default: 2 × MaxInFlight.
	MaxQueue int
	// QueueWait bounds how long a queued request waits before shedding.
	// Default: 100ms.
	QueueWait time.Duration
	// MaxDeadline caps every request's wall-clock budget and is applied
	// as the budget when a request names none. Default: 30s.
	MaxDeadline time.Duration
	// MaxPhis caps the /v1/check batch size. Default: 64.
	MaxPhis int
	// Parallelism caps (and defaults) the per-request worker count.
	// Default: GOMAXPROCS.
	Parallelism int
	// CacheSize is the number of compiled universes kept warm (LRU).
	// Default: 32.
	CacheSize int
	// RetryAfter is the hint attached to 429 and 503 answers. Default: 1s.
	RetryAfter time.Duration
	// MaxBodyBytes caps request body size. Default: 8 MiB.
	MaxBodyBytes int64
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 2 * c.MaxInFlight
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 100 * time.Millisecond
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 30 * time.Second
	}
	if c.MaxPhis <= 0 {
		c.MaxPhis = 64
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 32
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c
}

// Server is the daemon's HTTP handler plus its lifecycle switches. Wire it
// to an http.Server; on SIGTERM call BeginDrain, then http.Server.Shutdown
// for the in-flight completions.
type Server struct {
	cfg     Config
	adm     *admission
	cache   *cache
	metrics *metrics
	mux     *http.ServeMux
	ready   atomic.Bool
	panics  atomic.Int64
}

// New builds a Server ready to serve.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		adm:   newAdmission(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueWait),
		cache: newCache(cfg.CacheSize),
		metrics: newMetrics("healthz", "readyz", "statusz", "check", "cover",
			"implies", "universe_register", "universe_get", "sigma_put", "sigma_patch"),
		mux: http.NewServeMux(),
	}
	s.ready.Store(true)

	// Probes and stats bypass admission: they must answer while saturated.
	s.mux.Handle("GET /healthz", s.timed("healthz", http.HandlerFunc(s.handleHealthz)))
	s.mux.Handle("GET /readyz", s.timed("readyz", http.HandlerFunc(s.handleReadyz)))
	s.mux.Handle("GET /statusz", s.timed("statusz", http.HandlerFunc(s.handleStatusz)))

	s.mux.Handle("POST /v1/check", s.timed("check", s.compute(s.handleCheck)))
	s.mux.Handle("POST /v1/cover", s.timed("cover", s.compute(s.handleCover)))
	s.mux.Handle("POST /v1/implies", s.timed("implies", s.compute(s.handleImplies)))
	s.mux.Handle("POST /v1/universe", s.timed("universe_register", s.compute(s.handleUniverseRegister)))
	s.mux.Handle("GET /v1/universe/{fp}", s.timed("universe_get", http.HandlerFunc(s.handleUniverseGet)))
	s.mux.Handle("PUT /v1/universe/{fp}/sigma", s.timed("sigma_put", s.compute(s.handleSigmaPut)))
	s.mux.Handle("PATCH /v1/universe/{fp}/sigma", s.timed("sigma_patch", s.compute(s.handleSigmaPatch)))
	return s
}

// timed records the request's wall-clock latency under the endpoint's
// /statusz histogram. It wraps outside compute, so queue wait and shed
// answers are part of the measured distribution — the client-observed
// latency, not just the handler's.
func (s *Server) timed(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		defer func() { s.metrics.observe(name, time.Since(start)) }()
		next.ServeHTTP(w, r)
	})
}

// Handler returns the daemon's HTTP handler with panic isolation applied.
func (s *Server) Handler() http.Handler { return s.recoverWrap(s.mux) }

// BeginDrain starts graceful shutdown: readiness flips false, then
// admission switches to refusing new work with 503. In-flight requests are
// untouched; follow with http.Server.Shutdown to wait for them.
func (s *Server) BeginDrain() {
	s.ready.Store(false)
	faultinject.Hit(faultinject.SiteDaemonDrain)
	s.adm.beginDrain()
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.adm.isDraining() }

// Stats is the /statusz document.
type Stats struct {
	Ready     bool           `json:"ready"`
	Admission AdmissionStats `json:"admission"`
	Cache     CacheStats     `json:"cache"`
	Panics    int64          `json:"panics"`
	// Latency maps endpoint name → its latency histogram summary, measured
	// around the whole request (admission queueing included). Endpoints
	// with no traffic are omitted.
	Latency map[string]LatencyStats `json:"latency,omitempty"`
}

func (s *Server) stats() Stats {
	return Stats{
		Ready:     s.ready.Load(),
		Admission: s.adm.stats(),
		Cache:     s.cache.stats(),
		Panics:    s.panics.Load(),
		Latency:   s.metrics.snapshot(),
	}
}

// recoverWrap isolates request panics: the panicking request answers 500,
// the server keeps serving everyone else. Injected faultinject panics take
// the same path — that is what the crash suite exercises.
func (s *Server) recoverWrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				// Best effort: if the handler already wrote, this is a no-op
				// on the status line and the client sees a truncated body.
				s.writePanic(w, v)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// writePanic answers a panic with a 500 carrying the panic value (never a
// stack) and counts it on /statusz.
func (s *Server) writePanic(w http.ResponseWriter, v any) {
	s.panics.Add(1)
	s.writeError(w, http.StatusInternalServerError, fmt.Errorf("internal panic: %v", v))
}

// writeWorkerPanic answers err as writePanic would the original panic when
// err is a panic the library recovered at one of its worker boundaries,
// and reports whether it was.
func (s *Server) writeWorkerPanic(w http.ResponseWriter, err error) bool {
	var pe *parutil.PanicError
	if !errors.As(err, &pe) {
		return false
	}
	s.writePanic(w, pe.Value)
	return true
}

// compute applies the admission front door to a work-performing handler.
func (s *Server) compute(next http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		release, status := s.adm.admit(r.Context())
		switch status {
		case admitOK:
			defer release()
			faultinject.Hit(faultinject.SiteDaemonRequest)
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
			next(w, r)
		case admitShed:
			s.writeRetryError(w, http.StatusTooManyRequests,
				errors.New("over capacity, retry later"))
		case admitDraining:
			s.writeRetryError(w, http.StatusServiceUnavailable,
				errors.New("draining, retry against another instance"))
		case admitCancelled:
			// Client abandoned the request while queued; nothing to say.
		}
	})
}

// ---- handlers ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		s.writeRetryError(w, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ready\n")
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.stats())
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	req, err := DecodeCheckRequest(body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := applyBudgetHeaders(r.Header, &req.DeadlineMillis, &req.MaxChaseSteps); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	e, ok, err := s.resolve(req.Spec, req.Universe)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown universe %q", req.Universe))
		return
	}
	phis := req.allPhis()
	if len(phis) > s.cfg.MaxPhis {
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d view CFDs exceeds the limit of %d", len(phis), s.cfg.MaxPhis))
		return
	}
	parsed := make([]*cfd.CFD, len(phis))
	for i, src := range phis {
		if parsed[i], err = cfd.Parse(src); err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("phi %q: %w", src, err))
			return
		}
	}

	general := e.db.HasFiniteAttr()
	if req.General != nil {
		general = *req.General
	}
	opts := req.options(general)
	if opts.Parallelism == 0 || opts.Parallelism > s.cfg.Parallelism {
		opts.Parallelism = s.cfg.Parallelism
	}
	// The deadline bounds the whole batch, so it rides on the context
	// rather than Options.Deadline (which is per Check call). The
	// chase-step budget stays per φ — deterministic regardless of how far
	// through the batch the deadline struck.
	ctx, cancel := s.deadlineCtx(r, req.DeadlineMillis)
	defer cancel()
	opts.Context = ctx
	// The universe's memo replays pair verdicts across requests (and across
	// the φ batch); a Σ edit swaps in a fresh entry with a fresh memo.
	opts.Memo = e.memo

	resp := CheckResponse{Universe: e.fp, Generation: e.gen}
	for i, phi := range parsed {
		res, err := propagation.Check(e.db, e.view, e.sigma, phi, opts)
		if err != nil {
			if !s.writeWorkerPanic(w, err) {
				s.writeError(w, http.StatusBadRequest, fmt.Errorf("phi %q: %w", phis[i], err))
			}
			return
		}
		resp.Results = append(resp.Results, ResultOf(phis[i], res, e.db))
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCover(w http.ResponseWriter, r *http.Request) {
	var req CoverRequest
	if !s.readBody(w, r, &req) {
		return
	}
	if err := req.validate(); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := applyBudgetHeaders(r.Header, &req.DeadlineMillis, new(int64)); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	e, ok, err := s.resolve(req.Spec, req.Universe)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown universe %q", req.Universe))
		return
	}
	par := req.Parallelism
	if par == 0 || par > s.cfg.Parallelism {
		par = s.cfg.Parallelism
	}
	ctx, cancel := s.deadlineCtx(r, req.DeadlineMillis)
	defer cancel()

	var out *coverOutcome
	cached := false
	if req.MaxCoverSize > 0 {
		out, err = e.coverWith(ctx, par, req.MaxCoverSize)
	} else {
		out, cached, err = e.ensureCover(ctx, par)
	}
	if err != nil {
		s.writeComputeError(w, ctx, err)
		return
	}
	resp := CoverResponse{
		Universe:    e.fp,
		Generation:  e.gen,
		ViewSchema:  e.vs.String(),
		Cover:       cfdStrings(out.cover),
		Exact:       e.exact() && !out.truncated,
		AlwaysEmpty: out.alwaysEmpty,
		Truncated:   out.truncated,
		Cached:      cached,
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleImplies(w http.ResponseWriter, r *http.Request) {
	var req ImpliesRequest
	if !s.readBody(w, r, &req) {
		return
	}
	if err := req.validate(); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := applyBudgetHeaders(r.Header, &req.DeadlineMillis, new(int64)); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	phi, err := cfd.Parse(req.Phi)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("phi %q: %w", req.Phi, err))
		return
	}
	e, ok, err := s.resolve(req.Spec, req.Universe)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown universe %q", req.Universe))
		return
	}
	ctx, cancel := s.deadlineCtx(r, req.DeadlineMillis)
	defer cancel()
	implied, err := e.impliedByCover(ctx, s.cfg.Parallelism, phi)
	if err != nil {
		s.writeComputeError(w, ctx, err)
		return
	}
	s.writeJSON(w, http.StatusOK, ImpliesResponse{
		Universe:   e.fp,
		Generation: e.gen,
		Implied:    implied,
		Exact:      e.exact(),
	})
}

func (s *Server) handleUniverseRegister(w http.ResponseWriter, r *http.Request) {
	var req UniverseRequest
	if !s.readBody(w, r, &req) {
		return
	}
	if req.Spec == nil {
		s.writeError(w, http.StatusBadRequest, errors.New("spec is required"))
		return
	}
	e, _, err := s.cache.getOrCompile(req.Spec)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	s.writeJSON(w, http.StatusOK, universeResponse(e))
}

func (s *Server) handleUniverseGet(w http.ResponseWriter, r *http.Request) {
	e, ok := s.cache.lookup(r.PathValue("fp"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown universe %q", r.PathValue("fp")))
		return
	}
	s.writeJSON(w, http.StatusOK, universeResponse(e))
}

// handleSigmaPut replaces Σ wholesale. The new Σ is diffed against the
// current one, so the successor keeps the warm state just as a PATCH's.
func (s *Server) handleSigmaPut(w http.ResponseWriter, r *http.Request) {
	var req SigmaRequest
	if !s.readBody(w, r, &req) {
		return
	}
	s.replaceEntry(w, r, func(old *entry) (*entry, propagation.CarryStats, error) {
		return old.replaceSigma(req.CFDs)
	})
}

// handleSigmaPatch applies a Σ delta.
func (s *Server) handleSigmaPatch(w http.ResponseWriter, r *http.Request) {
	var req SigmaPatchRequest
	if !s.readBody(w, r, &req) {
		return
	}
	if err := req.validate(); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	s.replaceEntry(w, r, func(old *entry) (*entry, propagation.CarryStats, error) {
		return old.patchSigma(req.Add, req.Remove)
	})
}

// replaceEntry is the tail PUT and PATCH share: derive the universe's
// successor entry (same universe chain, new fingerprint, generation + 1,
// memo migrated, cover session transferred), swap it into the cache and
// answer with it and the memo carry-over.
func (s *Server) replaceEntry(w http.ResponseWriter, r *http.Request, derive func(old *entry) (*entry, propagation.CarryStats, error)) {
	old, ok := s.cache.lookup(r.PathValue("fp"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown universe %q", r.PathValue("fp")))
		return
	}
	// The crash suite injects here: a panic before derive leaves the old
	// universe fully intact (validation precedes any state transfer).
	faultinject.Hit(faultinject.SiteSigmaEdit)
	fresh, carried, err := derive(old)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	// A concurrent identical edit may win the insert race; our entry then
	// never served, has no idle sessions and is simply dropped.
	e, err := s.cache.replace(old, fresh)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, http.StatusOK, SigmaPatchResponse{
		UniverseResponse: universeResponse(e),
		Carried:          carried,
	})
}

// ---- helpers ----

func universeResponse(e *entry) UniverseResponse {
	return UniverseResponse{
		Universe:   e.fp,
		Generation: e.gen,
		ViewSchema: e.vs.String(),
		SigmaSize:  len(e.sigma),
	}
}

func cfdStrings(cs []*cfd.CFD) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.String()
	}
	return out
}

// resolve turns (spec, universe) — exactly one set, already validated —
// into a cache entry. ok is false only for an unknown fingerprint.
func (s *Server) resolve(p *spec.Problem, fp string) (*entry, bool, error) {
	if p != nil {
		e, _, err := s.cache.getOrCompile(p)
		return e, err == nil, err
	}
	e, ok := s.cache.lookup(fp)
	return e, ok, nil
}

// readBody decodes a strict-JSON request body into dst, answering the
// error itself when it fails.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return false
	}
	if err := decodeStrict(body, dst); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

// deadlineCtx derives the request's compute context: the client's deadline
// capped by the server's maximum, the maximum alone when none was given.
func (s *Server) deadlineCtx(r *http.Request, deadlineMillis int64) (context.Context, context.CancelFunc) {
	d := time.Duration(deadlineMillis) * time.Millisecond
	if d <= 0 || d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return context.WithTimeout(r.Context(), d)
}

// writeComputeError maps a computation failure onto the degradation
// contract: a worker panic → 500, deadline expiry → 504, an evicted
// universe → 503 + Retry-After (the retry will recompile), anything else
// → 400.
func (s *Server) writeComputeError(w http.ResponseWriter, ctx context.Context, err error) {
	switch {
	case s.writeWorkerPanic(w, err):
	case ctx.Err() != nil:
		s.writeError(w, http.StatusGatewayTimeout, fmt.Errorf("budget exhausted: %w", err))
	case errors.Is(err, errEvicted):
		s.writeRetryError(w, http.StatusServiceUnavailable, errors.New("universe evicted mid-request, retry"))
	default:
		s.writeError(w, http.StatusBadRequest, err)
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, code int, err error) {
	s.writeJSON(w, code, ErrorResponse{Error: err.Error()})
}

// writeRetryError is writeError plus the Retry-After hint — the one place
// the 429/503 shed contract is stamped.
func (s *Server) writeRetryError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	s.writeError(w, code, err)
}
