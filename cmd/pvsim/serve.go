package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pvsim/internal/service"
	"pvsim/internal/sweep"
)

// runServe implements `pvsim serve`: the production sweep service. Submit
// a grid, stream its rows as they land, fetch the finished report;
// identical grids are deduplicated, finished results persist to the data
// dir and are served across restarts without re-simulation, and the
// bounded queue backpressures with 429 when full. SIGINT/SIGTERM shut
// down gracefully: in-flight sweeps finish (or, past the drain timeout,
// are cancelled and re-queued) and the pending queue is persisted.
func runServe(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pvsim serve", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:8321", "listen address")
	parallel := fs.Int("p", 0, "max parallel simulations per sweep")
	maxSystems := fs.Int("pool", 0, "max pooled systems (0 = default, negative = unbounded)")
	workers := fs.Int("workers", 0, "max concurrently running sweeps (0 = default 2)")
	queueDepth := fs.Int("queue-depth", 0, "max queued sweeps before 429 backpressure (0 = default 16)")
	dataDir := fs.String("data-dir", "", "persistence dir: finished results + queue state survive restarts (empty = memory only)")
	maxStored := fs.Int("max-stored", 0, "max results retained on disk (0 = default 256, negative = unbounded)")
	rate := fs.Float64("rate", 0, "max sweep starts per second (0 = unlimited)")
	compile := fs.Bool("compile", false, "pre-compile access streams into binary traces and replay them batched (bit-identical output)")
	shardWorkers := fs.String("shard-workers", "", "comma-separated shard-worker URLs (pvsim shard processes) to split each sweep across")
	shardTimeout := fs.Duration("shard-timeout", 0, "per-shard dispatch timeout before re-dispatching to another worker (0 = default 10m)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight sweeps")
	verbose := fs.Bool("v", false, "log per-run progress to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve: unexpected arguments %v", fs.Args())
	}

	opts := service.Options{
		Engine:       sweep.Options{Parallel: *parallel, MaxSystems: *maxSystems, Compile: *compile},
		Workers:      *workers,
		QueueDepth:   *queueDepth,
		DataDir:      *dataDir,
		MaxStored:    *maxStored,
		RatePerSec:   *rate,
		ShardTimeout: *shardTimeout,
	}
	if *shardWorkers != "" {
		for _, u := range strings.Split(*shardWorkers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				opts.ShardWorkers = append(opts.ShardWorkers, u)
			}
		}
	}
	if *verbose {
		opts.Log = func(f string, a ...interface{}) { fmt.Fprintf(os.Stderr, f+"\n", a...) }
		opts.Engine.Log = opts.Log
	}
	svc, err := service.New(opts)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "pvsim serve: listening on http://%s\n", *addr)
	fmt.Fprintf(stdout, "  POST   /sweeps              submit a grid (?priority=N; JSON: specs, workloads, mixes, pvcache, seeds, scale, timing, cost)\n")
	fmt.Fprintf(stdout, "  GET    /sweeps              list sweeps in submission order\n")
	fmt.Fprintf(stdout, "  GET    /sweeps/{id}         poll status + queue position\n")
	fmt.Fprintf(stdout, "  DELETE /sweeps/{id}         cancel a queued or running sweep\n")
	fmt.Fprintf(stdout, "  GET    /sweeps/{id}/result  fetch result (?format=json|text|md|csv)\n")
	fmt.Fprintf(stdout, "  GET    /sweeps/{id}/stream  stream rows (?format=json|ndjson|sse)\n")
	fmt.Fprintf(stdout, "  POST   /workers             register a shard worker ({\"url\": \"http://host:port\"})\n")
	fmt.Fprintf(stdout, "  GET    /workers             list shard workers + health\n")
	if len(opts.ShardWorkers) > 0 {
		fmt.Fprintf(stdout, "  shard workers: %s\n", strings.Join(opts.ShardWorkers, ", "))
	}
	if *dataDir != "" {
		fmt.Fprintf(stdout, "  data dir: %s (results + queue persist across restarts)\n", *dataDir)
	}

	// Graceful shutdown: stop listening on SIGINT/SIGTERM, let in-flight
	// sweeps finish within the drain budget, persist the rest.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	hs := &http.Server{Addr: *addr, Handler: svc}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()

	select {
	case err := <-serveErr:
		// Listen failed outright (bad address, port in use): shut the
		// service down and report.
		svc.Close(context.Background())
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills hard

	fmt.Fprintf(stdout, "pvsim serve: shutting down (draining up to %s)\n", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "pvsim serve: http shutdown: %v\n", err)
	}
	if err := svc.Close(drainCtx); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	fmt.Fprintf(stdout, "pvsim serve: drained\n")
	return nil
}
