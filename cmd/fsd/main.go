// Command fsd runs the false-sharing pipeline as a daemon: a
// crash-safe, overload-protected HTTP/JSON compile service. See
// internal/serve for the endpoints and the robustness envelope.
//
// Typical use:
//
//	fsd -addr :8347 -cache /var/tmp/fsd-cache &
//	curl -s localhost:8347/v1/analyze -d '{"source":"shared int x[64]; ..."}'
//
// SIGTERM or SIGINT drains gracefully: the listener closes, readiness
// fails, in-flight requests finish (or are cancelled at
// -drain-timeout), the cache index is flushed, and fsd exits 0. A
// second signal exits immediately with status 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"falseshare/internal/faultinject"
	"falseshare/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8347", "listen address")
		workers      = flag.Int("workers", 0, "max concurrently executing requests (0: GOMAXPROCS)")
		queue        = flag.Int("queue", 64, "max requests waiting for a worker before 429")
		perClient    = flag.Int("per-client", 8, "max in-flight requests per client (X-Client-ID header, else remote host)")
		maxBody      = flag.Int64("max-body", 1<<20, "request body limit in bytes")
		timeout      = flag.Duration("timeout", 60*time.Second, "per-request compile+simulate deadline")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "how long drain waits for in-flight requests")
		stepBudget   = flag.Int64("step-budget", 200_000_000, "VM step budget cap per request (requests may lower it)")
		poisonBudget = flag.Int("poison-budget", 3, "panics/blown budgets before a source hash is quarantined")
		cacheDir     = flag.String("cache", "", "artifact response cache directory (empty: no cache)")
		cacheBytes   = flag.Int64("cache-bytes", 0, "cache eviction budget in bytes (0: unlimited)")
		verbose      = flag.Bool("v", false, "stream per-request span completions to stderr")
		faults       = flag.String("faults", "", "deterministic fault-injection spec (testing; see internal/faultinject)")
	)
	flag.Parse()

	if err := faultinject.Setup(*faults, "FSD_FAULTS"); err != nil {
		fmt.Fprintf(os.Stderr, "fsd: %v\n", err)
		os.Exit(2)
	}

	srv, err := serve.New(serve.Options{
		Workers:        *workers,
		Queue:          *queue,
		PerClient:      *perClient,
		MaxBody:        *maxBody,
		RequestTimeout: *timeout,
		StepBudget:     *stepBudget,
		PoisonBudget:   *poisonBudget,
		CacheDir:       *cacheDir,
		CacheBytes:     *cacheBytes,
		Verbose:        *verbose,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsd: %v\n", err)
		os.Exit(2)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsd: %v\n", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "fsd: listening on %s\n", ln.Addr())

	// First signal: graceful drain. Second: immediate exit.
	drained := make(chan error, 1)
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "fsd: signal — draining (signal again to exit immediately)")
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
			defer cancel()
			drained <- srv.Drain(ctx)
		}()
		<-sigc
		fmt.Fprintln(os.Stderr, "fsd: second signal — exiting immediately")
		os.Exit(1)
	}()

	if err := srv.Serve(ln); err != nil {
		fmt.Fprintf(os.Stderr, "fsd: %v\n", err)
		os.Exit(1)
	}
	// Serve returned because Drain closed the listener; wait for the
	// drain itself (in-flight requests, cache index flush) to finish.
	if err := <-drained; err != nil {
		fmt.Fprintf(os.Stderr, "fsd: drain: %v\n", err)
	}
	c := srv.CacheCounters()
	fmt.Fprintf(os.Stderr, "fsd: drained | cache hits=%d misses=%d corrupt=%d evicted=%d entries=%d bytes=%d\n",
		c.Hits, c.Misses, c.CorruptDropped, c.Evictions, c.Entries, c.Bytes)
}
