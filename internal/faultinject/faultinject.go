// Package faultinject is a test-only fault-injection seam for the
// propagation stack. Library code marks interesting execution points —
// chase steps, worker-loop iterations, daemon request stages — by calling
// Hit with a site name. In normal builds Hit is an empty function that the
// compiler inlines away, so the instrumented hot paths pay nothing.
//
// Building with -tags faultinject activates the layer (active.go): tests
// install Rules that panic, delay, or fire a cancellation at the nth visit
// of a site, which is how the randomized crash-safety suite
// (crash_test.go) proves that no injected fault leaks a pooled sym.State,
// deadlocks a worker group, or makes a propagation.Check Result depend on
// the worker count.
package faultinject

// Site names instrumented by the library. They live in the always-built
// file so call sites and the tagged test suite share one vocabulary.
const (
	// SiteChaseStep fires once per worklist pop of the chase, in
	// chase.Inst.Run and chase.Resumable.Extend alike.
	SiteChaseStep = "chase.step"
	// SiteChaseRewind fires inside chase.Resumable.Rewind, before the
	// suffix state (occurrence overlay + term state) is rolled back.
	SiteChaseRewind = "chase.rewind"
	// SiteImplicationStep fires once per firing of the implication
	// session's counter closure, before the firing binds or unions its RHS
	// component.
	SiteImplicationStep = "implication.chase.step"
	// SiteParutilWorker fires once per item inside parutil.Do/DoCtx workers.
	SiteParutilWorker = "parutil.worker"
	// SitePropWorker fires once per schedule task inside the parallel
	// propagation worker loop.
	SitePropWorker = "propagation.worker"
	// SiteDaemonRequest fires once per admitted daemon request, after
	// admission control and before the request is dispatched to the
	// propagation stack.
	SiteDaemonRequest = "daemon.request"
	// SiteDaemonCache fires inside the daemon's universe cache on every
	// lookup, before a hit is returned or a miss starts compiling.
	SiteDaemonCache = "daemon.cache"
	// SiteDaemonDrain fires during daemon shutdown, after readiness has
	// flipped and before queued/new requests start being refused.
	SiteDaemonDrain = "daemon.drain"
	// SiteDaemonImplies fires once per /v1/implies request that holds an
	// implication session of the universe it resolved, before the query
	// runs on it.
	SiteDaemonImplies = "daemon.implies"
	// SiteStreamChunk fires once per chunk of every pass inside the
	// streaming detector's mapper stage, before the chunk's σ/π work
	// begins.
	SiteStreamChunk = "stream.chunk"
	// SiteSigmaEdit fires inside the daemon's Σ-edit handler (PUT and
	// PATCH) before the successor universe is derived.
	SiteSigmaEdit = "sigma.edit"
)
