package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"pvsim/internal/sweep"
)

// DefaultShardTimeout bounds one shard dispatch round trip when
// Options.ShardTimeout is zero: long enough for a real grid slice,
// short enough that a hung worker is re-dispatched the same day its
// sweep was submitted.
const DefaultShardTimeout = 10 * time.Minute

// shardWorker is one registered worker process. healthy flips false on
// the first failed dispatch and back true if the worker re-joins.
type shardWorker struct {
	url     string
	healthy bool
}

// WorkerStatus is one registry entry as GET /workers reports it.
type WorkerStatus struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
}

// dispatcher is the coordinator side of the shard protocol: a registry
// of shard workers (configured at boot via Options.ShardWorkers or
// joined at runtime via POST /workers) plus the per-shard dispatch — one
// HTTP round trip per shard with a timeout, dead workers marked
// unhealthy and their ranges re-dispatched to healthy ones, the local
// engine as the fallback of last resort.
type dispatcher struct {
	mu      sync.Mutex
	workers []*shardWorker

	client  *http.Client
	timeout time.Duration
	logf    func(format string, args ...interface{})
}

func newDispatcher(urls []string, timeout time.Duration, logf func(format string, args ...interface{})) *dispatcher {
	if timeout <= 0 {
		timeout = DefaultShardTimeout
	}
	d := &dispatcher{client: &http.Client{}, timeout: timeout, logf: logf}
	for _, u := range urls {
		d.add(u)
	}
	return d
}

// add registers a worker URL, reviving it if it was marked dead (a
// restarted worker re-joins under the same URL). It reports whether the
// URL was new.
func (d *dispatcher) add(url string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, w := range d.workers {
		if w.url == url {
			w.healthy = true
			return false
		}
	}
	d.workers = append(d.workers, &shardWorker{url: url, healthy: true})
	return true
}

// healthyWorkers snapshots the live workers, in registration order.
func (d *dispatcher) healthyWorkers() []*shardWorker {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []*shardWorker
	for _, w := range d.workers {
		if w.healthy {
			out = append(out, w)
		}
	}
	return out
}

// markDead records a failed dispatch; the worker receives no further
// shards until it re-joins.
func (d *dispatcher) markDead(w *shardWorker) {
	d.mu.Lock()
	w.healthy = false
	d.mu.Unlock()
}

// pickHealthy returns the first healthy worker not yet tried for the
// current shard, or nil.
func (d *dispatcher) pickHealthy(tried map[*shardWorker]bool) *shardWorker {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, w := range d.workers {
		if w.healthy && !tried[w] {
			return w
		}
	}
	return nil
}

// status snapshots the registry for GET /workers.
func (d *dispatcher) status() []WorkerStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]WorkerStatus, len(d.workers))
	for i, w := range d.workers {
		out[i] = WorkerStatus{URL: w.url, Healthy: w.healthy}
	}
	return out
}

// dispatch runs one shard on one worker: POST /shard, bounded by the
// dispatch timeout, the partial checked against the range it was asked
// for (a worker answering the wrong range is as dead as one answering
// nothing).
func (d *dispatcher) dispatch(ctx context.Context, w *shardWorker, g sweep.Grid, sh sweep.Shard) (*sweep.Partial, error) {
	body, err := json.Marshal(ShardRequest{Grid: g, Shard: sh})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, d.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/shard", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("worker %s: status %d: %s", w.url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	var p sweep.Partial
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		return nil, fmt.Errorf("worker %s: decoding partial: %w", w.url, err)
	}
	if p.Start != sh.Start || p.End != sh.End || len(p.Rows) != sh.End-sh.Start {
		return nil, fmt.Errorf("worker %s: answered range [%d,%d) with %d rows, asked [%d,%d)",
			w.url, p.Start, p.End, len(p.Rows), sh.Start, sh.End)
	}
	return &p, nil
}

// runSharded executes one sweep by sharding its jobs across the healthy
// workers: one contiguous expansion-order range per worker, dispatched
// concurrently, partials released to the row feed in shard order (so the
// stream carries rows in expansion order exactly like an unsharded run)
// and merged into a Result byte-identical to the unsharded one. A failed
// dispatch marks the worker dead and re-dispatches its range to the next
// healthy worker; with none left the range runs on the local engine. The
// progress callback counts whole-shard completions against the sharded
// run's true simulation total (each shard's jobs plus its baselines).
func (s *Server) runSharded(ctx context.Context, grid sweep.Grid, workers []*shardWorker, progress sweep.Progress, sink sweep.RowSink) (*sweep.Result, error) {
	shards, err := grid.Shards(len(workers))
	if err != nil {
		return nil, err
	}
	total := 0
	for _, sh := range shards {
		total += sh.Sims()
	}

	// Release buffer: shard i's rows go to the sink only after shards
	// 0..i-1 released theirs, whatever order dispatches complete in —
	// the same expansion-order contract the engine's RowSink keeps.
	parts := make([]*sweep.Partial, len(shards))
	var relMu sync.Mutex
	released, done := 0, 0
	release := func(i int, p *sweep.Partial) {
		relMu.Lock()
		parts[i] = p
		for released < len(shards) && parts[released] != nil {
			if sink != nil {
				for _, row := range parts[released].Rows {
					sink(row)
				}
			}
			released++
		}
		done += shards[i].Sims()
		if progress != nil {
			progress(done, total)
		}
		relMu.Unlock()
	}

	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func(i int, sh sweep.Shard, preferred *shardWorker) {
			defer wg.Done()
			p, err := s.runOneShard(ctx, grid, sh, preferred)
			if err != nil {
				errs[i] = err
				return
			}
			release(i, p)
		}(i, sh, workers[i%len(workers)])
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	collected := make([]sweep.Partial, len(parts))
	for i, p := range parts {
		collected[i] = *p
	}
	return grid.MergePartials(collected)
}

// runOneShard pushes one shard through the retry ladder: the preferred
// worker, then every other healthy worker once, then the local engine.
func (s *Server) runOneShard(ctx context.Context, grid sweep.Grid, sh sweep.Shard, preferred *shardWorker) (*sweep.Partial, error) {
	tried := map[*shardWorker]bool{}
	for w := preferred; w != nil; w = s.dispatcher.pickHealthy(tried) {
		tried[w] = true
		p, err := s.dispatcher.dispatch(ctx, w, grid, sh)
		if err == nil {
			return p, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		s.logf("serve: shard %d [%d,%d) on %s failed: %v; marking dead and re-dispatching", sh.Index, sh.Start, sh.End, w.url, err)
		s.dispatcher.markDead(w)
	}
	s.logf("serve: shard %d [%d,%d): no healthy worker left, running locally", sh.Index, sh.Start, sh.End)
	return s.engine.RunShard(ctx, grid, sh, nil)
}

// handleWorkers serves the worker registry: POST joins (or revives) a
// worker by URL — the `pvsim shard -join` handshake — and GET lists the
// registered workers with their health.
func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		var req struct {
			URL string `json:"url"`
		}
		dec := json.NewDecoder(limitBody(w, r))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil || req.URL == "" {
			bodyError(w, err, "want a JSON body like {\"url\": \"http://host:port\"}")
			return
		}
		if s.dispatcher.add(req.URL) {
			s.logf("serve: shard worker joined: %s", req.URL)
		} else {
			s.logf("serve: shard worker re-joined: %s", req.URL)
		}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"workers": s.dispatcher.status()})
}
