// Command staub-serve runs STAUB as a networked solve service: a JSON
// HTTP API over the shared parallel engine and solve cache, with
// admission control, per-request deadlines, metrics, and graceful
// shutdown. See internal/server for the endpoint semantics.
//
// Usage:
//
//	staub-serve [flags]
//
// Flags:
//
//	-addr HOST:PORT  listen address (default 127.0.0.1:8080; port 0 picks one)
//	-jobs N          concurrent solves (default 0 = GOMAXPROCS)
//	-queue N         admission queue depth beyond running solves (default 64)
//	-timeout D       default per-solve budget (default 2s)
//	-max-timeout D   largest budget a request may ask for (default 30s)
//	-max-body N      request body size limit in bytes (default 1 MiB)
//	-max-batch N     constraints allowed per /v1/batch request (default 64)
//	-drain D         grace period for in-flight requests on shutdown (default 30s)
//	-cube-vars N     default cube-and-conquer split for requests that name
//	                 none: 2^N assumption cubes (default 0 = sequential)
//	-over            run the over-approximation leg on every
//	                 pipeline/portfolio request by default (requests can
//	                 also opt in per-request with over=true)
//	-pool URL        this node's advertised base URL in a peer pool
//	                 (default off = standalone; requires -peers)
//	-peers URLS      comma-separated pool membership; every node lists the
//	                 same set (self included or not — it is added)
//	-cache-entries N bound the solve cache to an LRU of N memoized results
//	                 (default 0 = unbounded)
//	-jitter-seed N   seed for the deterministic retry/backoff jitter
//	                 stream (default 0; fix it to reproduce a schedule)
//	-pprof           expose net/http/pprof profiling under /debug/pprof/ (default off)
//	-chaos SPEC      enable deterministic fault injection, e.g.
//	                 "fault=pass-panic,rate=0.01,seed=7" (default off; for
//	                 resilience drills — never in production)
//	-version         print the build string and exit
//
// Shutdown: the first SIGINT/SIGTERM stops accepting work (healthz turns
// 503) and drains in-flight requests for up to -drain; a second signal
// cancels the remaining solves immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"staub/internal/buildinfo"
	"staub/internal/chaos"
	"staub/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address")
		jobs        = flag.Int("jobs", 0, "concurrent solves (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", 64, "admission queue depth beyond running solves")
		timeout     = flag.Duration("timeout", 2*time.Second, "default per-solve budget")
		maxTimeout  = flag.Duration("max-timeout", 30*time.Second, "largest per-solve budget a request may ask for")
		maxBody     = flag.Int64("max-body", 1<<20, "request body size limit in bytes")
		maxBatch    = flag.Int("max-batch", 64, "constraints allowed per /v1/batch request")
		drain       = flag.Duration("drain", 30*time.Second, "grace period for in-flight requests on shutdown")
		cubeVars    = flag.Int("cube-vars", 0, "default cube-and-conquer split over 2^N assumption cubes (0 = sequential)")
		over        = flag.Bool("over", false, "run the over-approximation leg on every pipeline/portfolio request by default")
		poolSelf    = flag.String("pool", "", "this node's advertised base URL in a peer pool (empty = standalone)")
		poolPeers   = flag.String("peers", "", "comma-separated pool membership URLs (used with -pool)")
		cacheEnts   = flag.Int("cache-entries", 0, "bound the solve cache to an LRU of N memoized results (0 = unbounded)")
		jitterSeed  = flag.Int64("jitter-seed", 0, "seed for the deterministic retry/backoff jitter stream")
		pprofOn     = flag.Bool("pprof", false, "expose net/http/pprof profiling under /debug/pprof/")
		chaosSpec   = flag.String("chaos", "", `enable deterministic fault injection, e.g. "fault=pass-panic,rate=0.01,seed=7"`)
		showVersion = flag.Bool("version", false, "print the build string and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(buildinfo.String("staub-serve"))
		return
	}

	logger := log.New(os.Stderr, "staub-serve: ", log.LstdFlags|log.Lmsgprefix)
	if *chaosSpec != "" {
		cfg, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			logger.Fatalf("-chaos: %v", err)
		}
		chaos.Enable(chaos.NewInjector(cfg))
		logger.Printf("CHAOS ENABLED (%s): injecting %s faults at rate %g — drill mode, not for production",
			*chaosSpec, cfg.Fault, cfg.Rate)
	}
	srv := server.New(server.Config{
		Workers:         *jobs,
		QueueDepth:      *queue,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTimeout,
		MaxRequestBytes: *maxBody,
		MaxBatch:        *maxBatch,
		CubeVars:        *cubeVars,
		OverApprox:      *over,
		PoolSelf:        strings.TrimSuffix(strings.TrimSpace(*poolSelf), "/"),
		PoolPeers:       splitPeers(*poolPeers),
		CacheEntries:    *cacheEnts,
		JitterSeed:      *jitterSeed,
		Version:         buildinfo.String("staub-serve"),
		Log:             logger,
	})
	defer srv.Close()
	if p := srv.Pool(); p != nil {
		logger.Printf("pool enabled: self=%s nodes=%v", p.Self(), p.Ring().Nodes())
	}

	handler := srv.Handler()
	if *pprofOn {
		// Route the profiling endpoints explicitly instead of relying on
		// http.DefaultServeMux, so they exist only behind the flag. They
		// bypass the request-ID/logging wrapper: profile downloads stream
		// for seconds and would only clutter the access log.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		logger.Printf("pprof profiling enabled at /debug/pprof/")
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	// The smoke test and port-0 users parse this line for the bound port.
	logger.Printf("listening on http://%s (%d workers, queue %d)",
		ln.Addr(), srv.Engine().Workers(), *queue)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	// Start probing peers only once this node itself is accepting, so a
	// simultaneously-booted pool converges instead of opening breakers on
	// each other during startup.
	srv.StartPool()

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-serveErr:
		logger.Fatal(err)
	case sig := <-sigs:
		logger.Printf("received %v: draining (in-flight solves get %v; signal again to cancel them)", sig, *drain)
	}

	srv.BeginDrain()
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- httpSrv.Shutdown(drainCtx) }()

	select {
	case sig := <-sigs:
		logger.Printf("received %v: cancelling in-flight solves", sig)
		srv.Abort()
		if err := <-shutdownDone; err != nil && !errors.Is(err, context.Canceled) {
			httpSrv.Close()
		}
	case err := <-shutdownDone:
		if err != nil {
			srv.Abort()
			httpSrv.Close()
			logger.Printf("drain expired: %v", err)
			os.Exit(1)
		}
	}
	srv.Close()
	logger.Printf("drained cleanly")
}

// splitPeers parses the -peers flag: comma-separated URLs, blanks
// ignored, trailing slashes trimmed so membership strings compare equal
// however operators spell them.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSuffix(strings.TrimSpace(p), "/")
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}
