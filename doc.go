// Package cfdprop is a Go implementation of "Propagating Functional
// Dependencies with Conditions" (Wenfei Fan, Shuai Ma, Yanli Hu, Jie Liu,
// Yinghui Wu; VLDB 2008): reasoning about which conditional functional
// dependencies (CFDs) are guaranteed to hold on a view, given dependencies
// on its sources.
//
// The library lives under internal/:
//
//   - internal/rel       — relational model (domains, schemas, instances)
//   - internal/cfd       — CFDs: pattern tuples, satisfaction, violations
//   - internal/algebra   — SPC / SPCU views in normal form, evaluator
//   - internal/sym, internal/chase, internal/tableau — the chase machinery
//     (sym journals class changes so chase fixpoints are worklist-driven)
//   - internal/implication — CFD implication and MinCover; the pooled
//     Session API reuses one compiled Σ, worklist chase state and
//     closure fast path across many queries, and ParallelMinCover fans
//     MinCover's left-reduction and redundancy screen out over per-worker
//     Sessions (see the package comment)
//   - internal/propagation — the Σ |=V φ decision procedures (§3); one
//     schedule executor runs the union-pair loop and the general-setting
//     instantiation enumeration on Options.Parallelism workers (a single
//     worker on the calling goroutine at Parallelism 1) with
//     first-counterexample cancellation, byte-identical at every worker
//     count
//   - internal/emptiness — the view-emptiness problem (§3.3)
//   - internal/core      — PropCFD_SPC: minimal propagation covers (§4)
//   - internal/closure   — the exponential closure-based baseline
//   - internal/stream    — bounded-memory streaming violation detection:
//     chunked CSV scanning, hash-sharded witness groups across workers,
//     hash-partitioned re-reads when a rule's group cardinality exceeds
//     the budget; reports are violation-identical to cfd.Violations
//   - internal/gen, internal/bench — §5 workload generators and harness
//
// # Cancellation and budget semantics
//
// Every long-running entry point is cooperatively cancellable and
// budgetable. propagation.Options carries a Context, a wall-clock Deadline
// and a MaxChaseSteps budget (one step pool shared by all workers of a
// call);
// core.Options and bench.Config thread a Context through the cover
// algorithms, implication Sessions accept one via SetContext, and
// implication.ParallelMinCover takes one as its first argument.
// The chase worklists, pair loops and finite-domain enumerations all poll
// these controls.
//
// A stop is not an error: propagation.Check reports it as Result.Stopped
// (StopCancelled, StopDeadline or StopChaseBudget), extending the
// Truncated precedent. The invariants: a refutation found before the stop
// is definitive (Propagated false, Stopped clear); a Propagated verdict
// with Stopped set only means "no counterexample found before the stop";
// counters reflect exactly the work finished; and for a fixed stop point
// (a fixed MaxChaseSteps at Parallelism 1) the partial Result is fully
// deterministic. Cancelled Sessions return to a reusable state via Reset;
// a Session that panicked mid-query is dropped, never reused.
//
// internal/faultinject is the test-only seam behind those guarantees: a
// no-op in normal builds, and under -tags faultinject a rule engine that
// injects panics, delays and forced cancellations at chase steps, worker
// boundaries and the daemon's request/cache/implies/drain seams, driven by
// the randomized crash-safety suite under -race.
//
// # The propagation daemon
//
// internal/daemon wraps the library as a crash-safe HTTP/JSON service,
// served by cmd/propcfdd. It keeps compiled (Σ, V) universes warm in a
// content-addressed LRU (register once, query by fingerprint; a Σ edit
// re-keys the universe and retires the old entry), maps the body/header
// budgets onto the stop semantics above ("stopped" in the response, never
// an error), and degrades gracefully instead of falling over: bounded
// admission with 429 + Retry-After shedding, per-request panic isolation
// (a panic costs one 500, not the process), and SIGTERM draining that
// completes in-flight work while refusing new work with 503. The
// daemon.Client type retries 429/503 with backoff. Responses are
// byte-identical to direct library calls — the crash suite enforces this
// under injected faults.
//
// Violation provenance is authoritative everywhere: rel.Instance records
// the 1-based file line of every tuple (header- and quoted-newline-aware),
// cfd.Violation carries both tuples' lines, and cfdcheck prints those —
// never data ordinals — so a reported line can be opened in an editor.
//
// Entry points: cmd/propcfd (compute covers, or query a daemon with
// -server), cmd/cfdcheck (validate data against CFDs, streaming in
// fixed space at 10M-tuple scale), cmd/benchfig
// (regenerate the paper's figures and tables; -json embeds a host stamp),
// cmd/propcfdd (the daemon); all take -timeout, which exits with status 3
// when the budget expires. Runnable walk-throughs live in examples/ —
// examples/quickstart ends with the daemon workflow.
package cfdprop
