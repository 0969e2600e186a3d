// Quickstart: define a source schema and dependencies, define an SPC view,
// and compute the minimal cover of all CFDs propagated to the view — first
// through the library, then through the propcfdd daemon's HTTP API.
//
// # Running the daemon
//
// The same computation is available as a service:
//
//	go run ./cmd/propcfdd -addr 127.0.0.1:7419
//
// propcfdd prints "propcfdd listening on ADDR" once up (port 0 picks a
// free port). POST /v1/universe registers a compiled (Σ, V) universe and
// returns its fingerprint; /v1/check, /v1/cover and /v1/implies then take
// either an inline "spec" or that "universe" fingerprint — fingerprinted
// queries reuse the warm compiled state and implication sessions across
// requests. PUT /v1/universe/{fp}/sigma replaces Σ wholesale and PATCH
// /v1/universe/{fp}/sigma takes an add/remove delta; both return a new
// fingerprint (the old one 404s, so stale clients fail loudly) and keep
// the universe warm, a PUT being diffed against the current Σ and applied
// as a delta: the verdict memo migrates (every pair the edit provably
// cannot affect carries over), and the response reports the carry
// ("carried": pairs/empty entries kept vs dropped) — a single-CFD edit on
// a warm universe re-covers an order of magnitude faster than a cold cover
// (cmd/benchfig -exp incremental reproduces the measurement).
//
// In the library the same incremental path is core.NewCoverSession:
// consecutive Cover(ctx, σ) calls diff Σ against the previous call and
// re-certify only what changed.
//
// # Budgets
//
// Per-request budgets ride in the body ("deadline_ms", "max_chase_steps")
// or the X-Propcfd-Deadline-Ms / X-Propcfd-Chase-Steps headers (the body
// wins). A budget that expires is not an error: the request returns 200
// with "stopped" set to "deadline" or "chase step budget" and the same
// partial-result semantics as the library (a refutation found before the
// stop is definitive).
//
// # Checking data
//
// Once the cover says which CFDs are NOT guaranteed, validate the data
// against just those with cfdcheck:
//
//	go run ./cmd/cfdcheck -data customers.csv -cfds rules.txt
//
// Violations print the 1-based file lines of both offending tuples —
// header- and quoted-newline-aware, so the numbers match what an editor
// shows. The check is a chunked scan whose memory is bounded by
// witness-group cardinality and worker count, not file size, so 10M-tuple
// files check in fixed space; -parallel sets the worker count and
// -max-groups the per-rule group budget of one pass, past which the file is
// re-read in hash partitions. cmd/benchfig -exp stream reproduces the
// scaling evidence.
//
// # Degradation contract
//
// The daemon sheds rather than queues unboundedly: when the in-flight and
// queue limits are full it answers 429 with Retry-After, and during a
// SIGTERM drain new work gets 503 with Retry-After while in-flight
// requests run to completion. daemon.Client retries both statuses with
// backoff, so callers see slowdown, not failure. /healthz stays 200 while
// draining; /readyz flips to 503 so load balancers stop routing.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"cfdprop/internal/algebra"
	"cfdprop/internal/cfd"
	"cfdprop/internal/core"
	"cfdprop/internal/daemon"
	"cfdprop/internal/rel"
	"cfdprop/internal/spec"
)

func main() {
	// A source relation of orders: order id, customer, country, tax rate,
	// item and price.
	orders := rel.InfiniteSchema("orders", "oid", "cust", "country", "tax", "item", "price")
	db := rel.MustDBSchema(orders)

	// Source dependencies: oid is a key for everything; within the UK the
	// tax rate is fixed at 20.
	sigma := []*cfd.CFD{
		cfd.MustParse(`orders([oid] -> [cust, country, tax, item, price])`),
		cfd.MustParse(`orders([country=UK] -> [tax=20])`),
	}

	// A view of UK orders that hides the country and tax columns.
	view := &algebra.SPC{
		Name:       "uk_orders",
		Atoms:      []algebra.RelAtom{{Source: "orders", Attrs: []string{"oid", "cust", "country", "tax", "item", "price"}}},
		Selection:  []algebra.EqAtom{{Left: "country", IsConst: true, Right: "UK"}},
		Projection: []string{"oid", "cust", "item", "price"},
	}

	res, err := core.PropCFDSPC(db, view, sigma, core.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("view: %s\n", view)
	fmt.Printf("minimal propagation cover (%d CFDs):\n", len(res.Cover))
	for _, c := range res.Cover {
		fmt.Printf("  %s\n", c)
	}

	// Ask whether specific view dependencies are guaranteed.
	for _, q := range []string{
		`uk_orders([oid] -> [price])`, // yes: restriction of the key
		`uk_orders([cust] -> [item])`, // no: customers order many items
	} {
		phi := cfd.MustParse(q)
		ok, err := res.IsPropagated(phi)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("propagated? %-34s %v\n", phi, ok)
	}

	daemonQuickstart()
}

// daemonQuickstart runs the same questions through the daemon: an
// in-process propcfdd (the binary serves the identical handler), the
// retrying client, a registered universe, and a per-request deadline.
func daemonQuickstart() {
	srv := daemon.New(daemon.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	fmt.Printf("\ndaemon listening on %s\n", ln.Addr())

	// The wire form of the view above: same relations, Σ and view, as the
	// JSON a remote client would POST.
	var problem spec.Problem
	if err := json.Unmarshal([]byte(`{
	  "relations": [{"name": "orders", "attrs": ["oid", "cust", "country", "tax", "item", "price"]}],
	  "cfds": ["orders([oid] -> [cust, country, tax, item, price])",
	           "orders([country=UK] -> [tax=20])"],
	  "view": {"name": "uk_orders",
	           "atoms": [{"source": "orders", "attrs": ["oid", "cust", "country", "tax", "item", "price"]}],
	           "selection": [{"left": "country", "const": "UK"}],
	           "projection": ["oid", "cust", "item", "price"]}
	}`), &problem); err != nil {
		log.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	client := &daemon.Client{Base: "http://" + ln.Addr().String()}

	// Register once; subsequent queries by fingerprint hit the warm state.
	reg, err := client.Register(ctx, &daemon.UniverseRequest{Spec: &problem})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered universe %s (generation %d)\n", reg.Universe, reg.Generation)

	// Same two questions, now with a 250ms deadline. On this tiny view the
	// budget never fires; under load the response would come back with
	// "stopped": "deadline" instead of failing.
	resp, err := client.Check(ctx, &daemon.CheckRequest{
		Universe:       reg.Universe,
		Phis:           []string{"uk_orders([oid] -> [price])", "uk_orders([cust] -> [item])"},
		DeadlineMillis: 250,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range resp.Results {
		fmt.Printf("daemon: propagated? %-34s %v\n", r.Phi, r.Propagated)
	}

	// Edit Σ in place: a new business rule arrives (each customer has one
	// country). PATCH keeps the universe warm — the response says how much
	// compiled state survived the edit (on this one-relation view the edit
	// touches every disjunct, so only Σ-independent verdicts can carry; on
	// multi-relation unions most of the memo survives) — and hands back the
	// successor fingerprint for the re-check.
	patch, err := client.PatchSigma(ctx, reg.Universe, &daemon.SigmaPatchRequest{
		Add: []string{"orders([cust] -> [country])"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("patched Σ: universe %s (generation %d), memo carry %d kept / %d dropped\n",
		patch.Universe, patch.Generation, patch.Carried.PairsCarried, patch.Carried.PairsDropped)
	resp, err = client.Check(ctx, &daemon.CheckRequest{
		Universe: patch.Universe,
		Phis:     []string{"uk_orders([cust] -> [item])"},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range resp.Results {
		fmt.Printf("daemon: propagated? %-34s %v\n", r.Phi, r.Propagated)
	}
}
