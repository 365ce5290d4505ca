package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pvsim/internal/experiments"
	"pvsim/internal/service"
	"pvsim/internal/sweep"
	"pvsim/internal/workloads"
)

const (
	// serveSetups is how many times a serve run builds its server; the
	// last build serves the session.
	serveSetups = 101
	// serveSlice is how long the clients of an untraced session run
	// between two timings of the reference computation.
	serveSlice = 3 * time.Second
	// serveGridCap bounds the generated grid sequence; a 30-second session
	// completes a few hundred grids at most.
	serveGridCap = 5000
	// probeGrids is the length of the sharded session that measures the
	// service layers for workloads that do not run the service.
	probeGrids = 8
)

// serveEnv is one in-process service with default options behind a
// loopback listener and, when sharded, two shard workers (Parallel 1)
// behind listeners of their own, registered with the coordinator.
type serveEnv struct {
	srv     *service.Server
	base    string
	taps    []*shardTap
	servers []*http.Server
	serving sync.WaitGroup
}

func startServe(tr *tracer, sharded bool) (*serveEnv, error) {
	env := &serveEnv{}
	var urls []string
	if sharded {
		for i := 0; i < 2; i++ {
			tap := &shardTap{h: service.NewShardWorker(sweep.Options{Parallel: 1}, nil), tr: tr}
			url, err := env.listen(tap)
			if err != nil {
				env.close()
				return nil, err
			}
			env.taps = append(env.taps, tap)
			urls = append(urls, url)
		}
	}
	srv, err := service.New(service.Options{ShardWorkers: urls})
	if err != nil {
		env.close()
		return nil, err
	}
	env.srv = srv
	if env.base, err = env.listen(srv); err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

// listen serves h on a fresh loopback port until close.
func (e *serveEnv) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	e.servers = append(e.servers, hs)
	e.serving.Add(1)
	go func() {
		defer e.serving.Done()
		_ = hs.Serve(ln) // always http.ErrServerClosed, once close runs
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the service's sweep workers, then every listener, and
// waits for the serving goroutines to return.
func (e *serveEnv) close() error {
	var err error
	if e.srv != nil {
		err = e.srv.Close(context.Background())
	}
	for _, hs := range e.servers {
		hs.Close()
	}
	e.serving.Wait()
	return err
}

// shardTap wraps a shard worker's handler to time each dispatch and keep
// the partial it answered.
type shardTap struct {
	h  http.Handler
	tr *tracer

	mu    sync.Mutex
	calls []shardCall
}

// shardCall is one POST /shard as the worker saw it.
type shardCall struct {
	grid   sweep.Grid
	shard  int
	status int // 0 when the handler wrote nothing (a cancelled dispatch)
	d      time.Duration
	body   []byte
}

func (t *shardTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/shard" {
		t.h.ServeHTTP(w, r)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var req service.ShardRequest
	// A body that does not decode is the worker's to reject; the tap
	// records the call either way.
	_ = json.Unmarshal(body, &req)
	r.Body = io.NopCloser(bytes.NewReader(body))
	rec := &tapWriter{ResponseWriter: w}
	t0 := time.Now()
	t.h.ServeHTTP(rec, r)
	t1 := time.Now()
	t.tr.add("service.ShardWorker.ServeHTTP", t0, t1, -1, req.Shard.Index)
	t.mu.Lock()
	t.calls = append(t.calls, shardCall{grid: req.Grid, shard: req.Shard.Index, status: rec.status, d: t1.Sub(t0), body: rec.body.Bytes()})
	t.mu.Unlock()
}

// tapWriter copies a response's status and body.
type tapWriter struct {
	http.ResponseWriter
	status int
	body   bytes.Buffer
}

func (w *tapWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *tapWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.body.Write(p)
	return w.ResponseWriter.Write(p)
}

// request is one grid a client submitted and streamed.
type request struct {
	idx                              int
	grid                             sweep.Grid
	status                           int  // POST /sweeps status
	queued                           bool // a 202 carrying a queue position
	submit, admitted, firstRow, last time.Time
	body                             []byte // the streamed bytes
	err                              error
}

func (r *request) latency() time.Duration { return r.last.Sub(r.submit) }

// rowsOpen ends the framed stream's header; the first row follows it.
var rowsOpen = []byte(`"rows": [`)

// session runs a closed loop of clients against env: each client takes
// the next grid of the sequence, submits it, and reads its canonical
// stream to the last byte before taking another. Clients stop taking
// grids once window has passed (window 0: when the sequence runs out).
// It returns the requests in sequence order and the session's wall time.
func session(env *serveEnv, tr *tracer, grids []sweep.Grid, clients int, window time.Duration) ([]*request, time.Duration) {
	transport := &http.Transport{MaxIdleConnsPerHost: clients}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}

	var next atomic.Int64
	var mu sync.Mutex
	var reqs []*request
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(grids) || (window > 0 && time.Since(start) >= window) {
					return
				}
				r := submitAndStream(client, env.base, tr, i, grids[i])
				mu.Lock()
				reqs = append(reqs, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].idx < reqs[j].idx })
	return reqs, elapsed
}

// referencedSession runs a session for window in slices of serveSlice.
// Before each slice, with no request in flight, it times the reference
// computation. It returns the requests in sequence order and the
// reference times.
func referencedSession(env *serveEnv, grids []sweep.Grid, clients int, window time.Duration) ([]*request, []time.Duration) {
	off := newTracer(false)
	var reqs []*request
	var refs []time.Duration
	start := time.Now()
	for len(reqs) < len(grids) {
		refs = append(refs, reference(runtime.NumCPU()))
		left := window - time.Since(start)
		if left <= 0 {
			break
		}
		// Clients stop taking grids when a slice ends, so each slice runs
		// a prefix of the grids it is given.
		part, _ := session(env, off, grids[len(reqs):], clients, min(serveSlice, left))
		for _, r := range part {
			r.idx += len(reqs)
		}
		reqs = append(reqs, part...)
	}
	return reqs, refs
}

func submitAndStream(client *http.Client, base string, tr *tracer, idx int, g sweep.Grid) *request {
	r := &request{idx: idx, grid: g}
	body, err := json.Marshal(g)
	if err != nil {
		r.err = err
		return r
	}
	r.submit = time.Now()
	root := tr.begin("client.request", -1, idx)
	defer tr.end(root)
	resp, err := client.Post(base+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	var admitted struct {
		ID       string `json:"id"`
		Position *int   `json:"position"`
	}
	err = json.NewDecoder(resp.Body).Decode(&admitted)
	resp.Body.Close()
	r.admitted = time.Now()
	r.status = resp.StatusCode
	tr.add("service.Server.POST /sweeps", r.submit, r.admitted, root, idx)
	switch {
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted:
		r.err = fmt.Errorf("POST /sweeps: status %d", resp.StatusCode)
		return r
	case err != nil:
		r.err = fmt.Errorf("POST /sweeps: %w", err)
		return r
	}
	r.queued = resp.StatusCode == http.StatusAccepted && admitted.Position != nil

	resp, err = client.Get(base + "/sweeps/" + admitted.ID + "/stream")
	if err != nil {
		r.err = err
		return r
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("GET stream: status %d", resp.StatusCode)
		return r
	}
	var buf bytes.Buffer
	chunk := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(chunk)
		buf.Write(chunk[:n])
		if r.firstRow.IsZero() && n > 0 {
			if i := bytes.Index(buf.Bytes(), rowsOpen); i >= 0 && buf.Len() > i+len(rowsOpen) {
				r.firstRow = time.Now()
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			r.err = fmt.Errorf("GET stream: %w", err)
			return r
		}
	}
	r.last = time.Now()
	r.body = buf.Bytes()
	if r.firstRow.IsZero() {
		r.err = fmt.Errorf("GET stream: no row in %d bytes", buf.Len())
		return r
	}
	streamSpan := tr.add("service.Server.GET /sweeps/{id}/stream", r.admitted, r.last, root, idx)
	tr.add("stream.rows", r.firstRow, r.last, streamSpan, idx)
	return r
}

// verify checks every streamed body against Engine.Run(grid).JSON() from
// one fresh reference engine, outside any timed window, and returns the
// reference runs' timings. Like the service, the reference runs nproc
// grids at a time.
func verify(b *bench, tr *tracer, reqs []*request) []sweepTiming {
	var grids []sweep.Grid
	slot := map[string]int{}
	for _, r := range reqs {
		if h := r.grid.Hash(); r.err == nil {
			if _, ok := slot[h]; !ok {
				slot[h] = len(grids)
				grids = append(grids, r.grid)
			}
		}
	}
	runs := make([]sweepTiming, len(grids))
	errs := make([]error, len(grids))
	ref := sweep.New(sweep.Options{Parallel: runtime.NumCPU()})
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(grids); i = int(next.Add(1) - 1) {
				runs[i], errs[i] = timedSweep(tr, ref, grids[i], i)
			}
		}()
	}
	wg.Wait()

	for _, r := range reqs {
		b.attempted++
		if r.err != nil {
			b.fail("grid %d: %v", r.idx, r.err)
			continue
		}
		i := slot[r.grid.Hash()]
		switch {
		case errs[i] != nil:
			b.fail("grid %d: reference run: %v", r.idx, errs[i])
		case !bytes.Equal(r.body, runs[i].report):
			b.fail("grid %d: streamed %d bytes differ from the reference report (%d bytes)", r.idx, len(r.body), len(runs[i].report))
		}
	}
	var good []sweepTiming
	for i, s := range runs {
		if errs[i] == nil {
			good = append(good, s)
		}
	}
	return good
}

// latencies returns the submit-to-last-byte time of each completed
// request.
func latencies(reqs []*request) []time.Duration {
	var out []time.Duration
	for _, r := range reqs {
		if r.err == nil {
			out = append(out, r.latency())
		}
	}
	return out
}

// setRequestMetrics reports the service layers as clients saw them over a
// session of the given length.
func setRequestMetrics(b *bench, reqs []*request, elapsed time.Duration) {
	var admit, stream, first, lat []float64
	var dedup, accepted, queued, rejected float64
	for _, r := range reqs {
		switch r.status {
		case http.StatusOK:
			dedup++
		case http.StatusAccepted:
			accepted++
			if r.queued {
				queued++
			}
		case http.StatusTooManyRequests:
			rejected++
		}
		if r.err != nil {
			continue
		}
		admit = append(admit, r.admitted.Sub(r.submit).Seconds())
		stream = append(stream, r.last.Sub(r.firstRow).Seconds())
		first = append(first, r.firstRow.Sub(r.submit).Seconds())
		lat = append(lat, r.latency().Seconds())
	}
	b.set("service.admit_s_p50", median(admit))
	b.set("service.queued_frac", ratio(queued, accepted))
	b.set("service.dedup_frac", ratio(dedup, float64(len(reqs))))
	b.set("service.rejected", rejected)
	b.set("service.stream_s_p50", median(stream))
	b.set("service.first_row_p50_s", median(first))
	b.set("service.req_p90_s", percentile(lat, 0.9))
	b.set("service.grids_per_s", float64(len(lat))/elapsed.Seconds())
}

// setShardMetrics reports dispatch and merge from the shard workers'
// taps: the worker-side time of each dispatch, the dispatches that failed
// and so were retried, and MergePartials over each grid's captured
// partials, whose merged report must equal the streamed one.
func setShardMetrics(b *bench, tr *tracer, taps []*shardTap, reqs []*request) {
	var dispatch []time.Duration
	retries := 0
	// A grid the service forgot and re-admitted is dispatched twice; the
	// first partial for each job range is kept, so each grid merges once.
	parts := map[string]map[int]sweep.Partial{}
	grids := map[string]sweep.Grid{}
	for _, t := range taps {
		t.mu.Lock()
		for _, c := range t.calls {
			dispatch = append(dispatch, c.d)
			if c.status != http.StatusOK {
				retries++
				continue
			}
			var p sweep.Partial
			if err := json.Unmarshal(c.body, &p); err != nil {
				b.fail("shard %d of grid %s: decoding partial: %v", c.shard, c.grid.Hash(), err)
				continue
			}
			h := c.grid.Hash()
			if parts[h] == nil {
				parts[h], grids[h] = map[int]sweep.Partial{}, c.grid
			}
			if _, dup := parts[h][p.Start]; !dup {
				parts[h][p.Start] = p
			}
		}
		t.mu.Unlock()
	}
	streamed := map[string][]byte{}
	for _, r := range reqs {
		if r.err == nil {
			streamed[r.grid.Hash()] = r.body
		}
	}
	var merges []time.Duration
	for _, h := range sortedKeys(parts) {
		body, ok := streamed[h]
		if !ok {
			continue
		}
		var ps []sweep.Partial
		for _, p := range parts[h] {
			ps = append(ps, p)
		}
		b.attempted++
		t0 := time.Now()
		res, err := grids[h].MergePartials(ps)
		t1 := time.Now()
		tr.add("sweep.Grid.MergePartials", t0, t1, -1, len(merges))
		if err != nil {
			b.fail("grid %s: MergePartials: %v", h, err)
			continue
		}
		merges = append(merges, t1.Sub(t0))
		if js, err := res.JSON(); err != nil || !bytes.Equal(js, body) {
			b.fail("grid %s: merged partials differ from the streamed report", h)
		}
	}
	b.set("service.dispatch_s_p50", medianDur(dispatch))
	b.set("service.dispatch_retries", float64(retries))
	b.set("sweep.merge_s", medianDur(merges))
}

// serviceProbe runs a short closed-loop session of the seed's first
// probeGrids grids against a sharded service and verifies it, for
// workloads that do not run the service themselves. With requests false
// it reports only the shard path (dispatch and merge).
func serviceProbe(b *bench, requests bool) error {
	env, err := startServe(b.tr, true)
	if err != nil {
		return err
	}
	reqs, elapsed := session(env, b.tr, serveGrids(b.seed, probeGrids), runtime.NumCPU(), 0)
	if err := env.close(); err != nil {
		return err
	}
	verify(b, newTracer(false), reqs)
	if requests {
		setRequestMetrics(b, reqs, elapsed)
	}
	setShardMetrics(b, b.tr, env.taps, reqs)
	return nil
}

// runServe drives the serve-local workload: a closed loop of nproc
// clients over the seeded grid sequence for the window, against a fresh
// in-process service with default options. Set-up is building the server,
// repeated serveSetups times. Traced runs split the window into an
// untraced and a traced session on fresh servers over the same sequence.
func runServe(b *bench) error {
	grids := serveGrids(b.seed, serveGridCap)
	clients := runtime.NumCPU()
	off := newTracer(false)

	var setups []time.Duration
	var env *serveEnv
	for k := 0; k < serveSetups; k++ {
		t0 := time.Now()
		e, err := startServe(off, false)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if k == 0 {
			t0 = procStart
		}
		setups = append(setups, t1.Sub(t0))
		if k < serveSetups-1 {
			if err := e.close(); err != nil {
				return err
			}
		}
		env = e
	}

	window := b.seconds
	var reqs []*request
	var refs []time.Duration
	if b.traced {
		window /= 2
		reqs, _ = session(env, off, grids, clients, window)
	} else {
		reqs, refs = referencedSession(env, grids, clients, window)
	}
	rss := peakRSSMB()
	if err := env.close(); err != nil {
		return err
	}
	if len(reqs) == len(grids) {
		return fmt.Errorf("the window outlasted all %d generated grids", len(grids))
	}
	b.recordServeProps(reqs)
	verify(b, off, reqs)
	lat := latencies(reqs)

	if !b.traced {
		b.setEndToEnd(setups, lat, refs, rss)
		return nil
	}

	tenv, err := startServe(b.tr, false)
	if err != nil {
		return err
	}
	treqs, elapsed := session(tenv, b.tr, grids, clients, window)
	if err := tenv.close(); err != nil {
		return err
	}
	runs := verify(b, b.tr, treqs)
	b.set("bench.trace_overhead_s", medianDur(latencies(treqs))-medianDur(lat))
	if len(runs) > 0 {
		setSweepMetrics(b, runs, runtime.NumCPU())
	}
	// The session never shards; a short sharded session measures dispatch
	// and merge.
	if err := serviceProbe(b, false); err != nil {
		return err
	}
	setRequestMetrics(b, treqs, elapsed)

	// The simulator layers are probed on the sequence's first cell at a
	// scale large enough to time.
	g := grids[0]
	w, err := workloads.ByName(g.Workloads[0])
	if err != nil {
		return err
	}
	return simLayers(b, experiments.ConfigFor(w, 0.1, g.Seeds[0]), 3, -1)
}

// recordServeProps records the session's planned simulations, their
// accesses, and the share of cells the sequence repeated.
func (b *bench) recordServeProps(reqs []*request) {
	var grids []sweep.Grid
	for _, r := range reqs {
		grids = append(grids, r.grid)
		if plan, err := r.grid.Plan(); err == nil {
			b.sims += plan.TotalSims
			if n, err := gridAccesses(r.grid, plan.TotalSims); err == nil {
				b.accesses += n
			}
		}
	}
	b.repeatCellFrac = repeatCellFrac(grids)
}
