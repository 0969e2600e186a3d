// Command propcfdd is the CFD-propagation daemon: a long-lived HTTP/JSON
// service over the propagation library that keeps compiled (Σ, V)
// universes warm across requests.
//
// Usage:
//
//	propcfdd [-addr 127.0.0.1:7419] [-max-inflight N] [-max-queue N]
//	         [-max-deadline D] [-cache-size N] [-grace D]
//	         [-parallel N] [-timeout D]
//
// The daemon prints "propcfdd listening on ADDR" once the listener is up
// (use -addr with port 0 to pick a free port and parse the line). SIGTERM
// or SIGINT starts a graceful drain: /readyz flips to 503, new work is
// refused with 503 + Retry-After, in-flight requests run to completion
// (bounded by -grace), then the process exits 0. -timeout, when set,
// triggers the same drain after that long — handy for smoke tests. The
// -pool-size flag is still accepted, and ignored.
//
// Endpoints: POST /v1/check, /v1/cover, /v1/implies, /v1/universe;
// GET /v1/universe/{fp}; PUT, PATCH /v1/universe/{fp}/sigma; GET /healthz,
// /readyz, /statusz. See internal/daemon for the wire format and the
// 429/503 degradation contract.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cfdprop/internal/cliutil"
	"cfdprop/internal/daemon"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7419", "listen address (port 0 picks a free port)")
	maxInFlight := flag.Int("max-inflight", 0, "concurrent request budget (0 = GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 0, "requests allowed to wait for a slot (0 = 2×inflight)")
	queueWait := flag.Duration("queue-wait", 0, "max wait in the admission queue before shedding (0 = 100ms)")
	maxDeadline := flag.Duration("max-deadline", 0, "cap and default for per-request deadlines (0 = 30s)")
	cacheSize := flag.Int("cache-size", 0, "compiled universes kept warm, LRU (0 = 32)")
	flag.Int("pool-size", 0, "ignored: /v1/implies reuses idle sessions of its universe (accepted so that existing scripts keep working)")
	retryAfter := flag.Duration("retry-after", 0, "Retry-After hint on 429/503 (0 = 1s)")
	grace := flag.Duration("grace", 10*time.Second, "max wait for in-flight requests during drain")
	common := cliutil.RegisterCommon(flag.CommandLine, "per-request propagation work")
	flag.Parse()

	srv := daemon.New(daemon.Config{
		MaxInFlight: *maxInFlight,
		MaxQueue:    *maxQueue,
		QueueWait:   *queueWait,
		MaxDeadline: *maxDeadline,
		CacheSize:   *cacheSize,
		RetryAfter:  *retryAfter,
		Parallelism: common.Parallel,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		cliutil.Fatal("propcfdd", err)
	}
	fmt.Printf("propcfdd listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	drained := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
		var expiry <-chan time.Time
		if common.Timeout > 0 {
			expiry = time.After(common.Timeout)
		}
		select {
		case s := <-sig:
			fmt.Fprintf(os.Stderr, "propcfdd: %v: draining\n", s)
		case <-expiry:
			fmt.Fprintln(os.Stderr, "propcfdd: -timeout reached: draining")
		}
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "propcfdd: drain incomplete: %v\n", err)
		}
		close(drained)
	}()

	if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
		cliutil.Fatal("propcfdd", err)
	}
	<-drained
	fmt.Fprintln(os.Stderr, "propcfdd: drained, exiting")
}
