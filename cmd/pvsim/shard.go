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

// runShard implements `pvsim shard`: one shard-worker process for a
// sharded sweep coordinator. It serves POST /shard (run one contiguous
// job range of a grid, answer its partial) and GET /healthz, and can
// announce itself to a running coordinator with -join — the handshake
// behind horizontal scaling: boot N of these, point `pvsim serve
// -shard-workers` at them (or let them -join), and every sweep's jobs
// split across the fleet with byte-identical output.
func runShard(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pvsim shard", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:8331", "listen address")
	parallel := fs.Int("p", 0, "max parallel simulations per shard")
	maxSystems := fs.Int("pool", 0, "max pooled systems (0 = default, negative = unbounded)")
	compile := fs.Bool("compile", false, "pre-compile access streams into binary traces and replay them batched (bit-identical output)")
	join := fs.String("join", "", "coordinator base URL to register with (POST /workers)")
	advertise := fs.String("advertise", "", "URL the coordinator should dispatch to (default http://<addr>)")
	verbose := fs.Bool("v", false, "log per-shard progress to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("shard: unexpected arguments %v", fs.Args())
	}

	opts := sweep.Options{Parallel: *parallel, MaxSystems: *maxSystems, Compile: *compile}
	var logf func(format string, a ...interface{})
	if *verbose {
		logf = func(f string, a ...interface{}) { fmt.Fprintf(os.Stderr, f+"\n", a...) }
		opts.Log = logf
	}
	worker := service.NewShardWorker(opts, logf)

	fmt.Fprintf(stdout, "pvsim shard: listening on http://%s\n", *addr)
	fmt.Fprintf(stdout, "  POST /shard    run one job range of a grid, answer its partial\n")
	fmt.Fprintf(stdout, "  GET  /healthz  liveness probe\n")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	hs := &http.Server{Addr: *addr, Handler: worker}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()

	if *join != "" {
		url := *advertise
		if url == "" {
			url = "http://" + *addr
		}
		if err := joinCoordinator(ctx, strings.TrimRight(*join, "/"), url); err != nil {
			hs.Close()
			return fmt.Errorf("shard: joining %s: %w", *join, err)
		}
		fmt.Fprintf(stdout, "pvsim shard: joined coordinator %s as %s\n", *join, url)
	}

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()

	// A shard worker holds no queue to drain: in-flight dispatches are
	// abandoned by the coordinator's timeout/retry, so shutdown is a
	// bounded connection drain.
	fmt.Fprintf(stdout, "pvsim shard: shutting down\n")
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("shard: shutdown: %w", err)
	}
	return nil
}

// joinCoordinator announces this worker to the coordinator's registry,
// retrying briefly: in a typical boot the coordinator and its workers
// start in the same breath, so the first attempt may race its listener.
func joinCoordinator(ctx context.Context, coordinator, advertise string) error {
	body := fmt.Sprintf("{\"url\": %q}", advertise)
	var lastErr error
	for attempt := 0; attempt < 10; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(500 * time.Millisecond):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, coordinator+"/workers", strings.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
		lastErr = fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return lastErr
}
