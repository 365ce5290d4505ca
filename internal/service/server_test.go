package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pvsim/internal/sweep"

	_ "pvsim/pv/predictors" // register the built-in predictor families
)

// testScale keeps service tests fast (the 1000-access floor) while still
// running warmup + measurement end to end.
const testScale = 0.0025

// newTestServer builds a service and wraps it in an httptest server; both
// are torn down with the test.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	svc, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Close(ctx)
	})
	return svc, ts
}

// postGrid submits a grid and decodes the status response.
func postGrid(t *testing.T, ts *httptest.Server, g sweep.Grid, query string) (status int, run sweepRun, header http.Header) {
	t.Helper()
	body, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/sweeps"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&run); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, run, resp.Header
}

// pollStatus polls until the sweep reaches one of the wanted states.
func pollStatus(t *testing.T, ts *httptest.Server, id string, want ...string) sweepRun {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var run sweepRun
		err = json.NewDecoder(resp.Body).Decode(&run)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range want {
			if run.Status == w {
				return run
			}
		}
		if run.Status == "error" {
			t.Fatalf("sweep %s errored: %s", id, run.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s still %q (%d/%d) after 30s, want %v", id, run.Status, run.Done, run.Total, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func smallGrid() sweep.Grid {
	return sweep.Grid{Specs: []string{"16-11a", "PV-8"}, Workloads: []string{"Apache"}, Seeds: []uint64{42}, Scale: testScale}
}

// TestServerEndToEnd drives the full flow — submit, poll, fetch — and
// pins the served result against the same grid run in-process: the HTTP
// surface must add nothing and lose nothing.
func TestServerEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{Engine: sweep.Options{Parallel: 4}})
	g := smallGrid()
	code, run, _ := postGrid(t, ts, g, "")
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	if run.ID != g.Hash() {
		t.Fatalf("sweep id %q, want grid hash %q", run.ID, g.Hash())
	}

	final := pollStatus(t, ts, run.ID, "done")
	if final.Done != final.Total || final.Total == 0 {
		t.Fatalf("finished sweep reports %d/%d", final.Done, final.Total)
	}

	resp, err := http.Get(fmt.Sprintf("%s/sweeps/%s/result", ts.URL, run.ID))
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch result: status %d err %v", resp.StatusCode, err)
	}

	inProcess, err := sweep.New(sweep.Options{Parallel: 1}).Run(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := inProcess.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want) {
		t.Fatalf("served result differs from in-process run:\n--- served ---\n%s\n--- in-process ---\n%s", served, want)
	}

	// The text rendering is served too, and matches the in-process doc.
	resp, err = http.Get(fmt.Sprintf("%s/sweeps/%s/result?format=text", ts.URL, run.ID))
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(text) != inProcess.Doc().Text() {
		t.Fatal("served text rendering differs from in-process doc")
	}

	// Resubmitting the identical grid is a dedup hit: 200 (not 202), same
	// id, already done, no re-simulation.
	code, again, _ := postGrid(t, ts, g, "")
	if code != http.StatusOK {
		t.Errorf("resubmit status %d, want 200", code)
	}
	if again.ID != run.ID || again.Status != "done" {
		t.Errorf("resubmit = %+v, want done sweep %s", again, run.ID)
	}
}

// TestStreamEndpointByteIdentical is the acceptance pin for streaming:
// the framed-JSON stream's byte concatenation equals the serial
// `pvsim sweep -format json` report, with the engine at parallelism 1
// and 8.
func TestStreamEndpointByteIdentical(t *testing.T) {
	g := smallGrid()
	serial, err := sweep.New(sweep.Options{Parallel: 1}).Run(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{1, 8} {
		_, ts := newTestServer(t, Options{Engine: sweep.Options{Parallel: parallel}})
		_, run, _ := postGrid(t, ts, g, "")
		resp, err := http.Get(fmt.Sprintf("%s/sweeps/%s/stream", ts.URL, run.ID))
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("stream content type %q", ct)
		}
		if !bytes.Equal(streamed, want) {
			t.Fatalf("parallel=%d: streamed bytes differ from serial report:\n--- streamed ---\n%s\n--- serial ---\n%s",
				parallel, streamed, want)
		}
	}
}

// TestStreamNDJSONAndSSE covers the line-oriented framings: every row
// arrives in expansion order, and the terminal marker closes the stream.
func TestStreamNDJSONAndSSE(t *testing.T) {
	_, ts := newTestServer(t, Options{Engine: sweep.Options{Parallel: 4}})
	g := smallGrid()
	_, run, _ := postGrid(t, ts, g, "")

	resp, err := http.Get(fmt.Sprintf("%s/sweeps/%s/stream?format=ndjson", ts.URL, run.ID))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	if len(lines) != 3 { // 2 jobs + terminal line
		t.Fatalf("ndjson stream has %d lines, want 3:\n%s", len(lines), body)
	}
	for i, line := range lines[:2] {
		var row sweep.Row
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("ndjson line %d does not parse: %v\n%s", i, err, line)
		}
		if row.Job != i {
			t.Errorf("ndjson line %d carries job %d; rows out of expansion order", i, row.Job)
		}
	}
	var terminal struct {
		ID   string `json:"id"`
		Jobs int    `json:"jobs"`
		Done bool   `json:"done"`
	}
	if err := json.Unmarshal([]byte(lines[2]), &terminal); err != nil || !terminal.Done || terminal.ID != run.ID {
		t.Fatalf("ndjson terminal line = %q (err %v), want done marker for %s", lines[2], err, run.ID)
	}

	// SSE: row events then a done event, via the Accept header.
	req, _ := http.NewRequest("GET", fmt.Sprintf("%s/sweeps/%s/stream", ts.URL, run.ID), nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sse, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("SSE content type %q", ct)
	}
	if n := strings.Count(string(sse), "event: row\n"); n != 2 {
		t.Errorf("SSE stream has %d row events, want 2:\n%s", n, sse)
	}
	if !strings.Contains(string(sse), "event: done\n") {
		t.Errorf("SSE stream lacks the done event:\n%s", sse)
	}
}

// TestListSortedBySubmissionSeq pins the listing fix: sweeps list in
// submission order (seq), not hash order, and carry seq/priority so
// operators see queue order.
func TestListSortedBySubmissionSeq(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: -1}) // paused: queue order stays observable
	grids := []sweep.Grid{
		{Specs: []string{"none"}, Workloads: []string{"Apache"}, Scale: testScale},
		{Specs: []string{"none"}, Workloads: []string{"Qry1"}, Scale: testScale},
		{Specs: []string{"none"}, Workloads: []string{"Zeus"}, Scale: testScale},
	}
	var ids []string
	for i, g := range grids {
		_, run, _ := postGrid(t, ts, g, fmt.Sprintf("?priority=%d", i))
		ids = append(ids, run.ID)
	}
	resp, err := http.Get(ts.URL + "/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Sweeps []sweepRun `json:"sweeps"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sweeps) != 3 {
		t.Fatalf("list has %d sweeps, want 3", len(list.Sweeps))
	}
	for i, run := range list.Sweeps {
		if run.ID != ids[i] {
			t.Fatalf("list order %v: position %d is %s, want submission order %v", list.Sweeps, i, run.ID, ids)
		}
		if run.Seq != uint64(i) || run.Priority != i {
			t.Errorf("list entry %d: seq=%d priority=%d, want %d/%d", i, run.Seq, run.Priority, i, i)
		}
	}
}

// TestQueueFullBackpressure pins admission control: past the queue depth
// the server answers 429 with a Retry-After header and admits nothing.
func TestQueueFullBackpressure(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: -1, QueueDepth: 2})
	grids := []sweep.Grid{
		{Specs: []string{"none"}, Workloads: []string{"Apache"}, Scale: testScale},
		{Specs: []string{"none"}, Workloads: []string{"Qry1"}, Scale: testScale},
		{Specs: []string{"none"}, Workloads: []string{"Zeus"}, Scale: testScale},
	}
	for i, g := range grids[:2] {
		if code, _, _ := postGrid(t, ts, g, ""); code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d, want 202", i, code)
		}
	}
	code, _, header := postGrid(t, ts, grids[2], "")
	if code != http.StatusTooManyRequests {
		t.Fatalf("submit past depth: status %d, want 429", code)
	}
	if header.Get("Retry-After") == "" {
		t.Error("429 response lacks Retry-After")
	}
	if svc.queue.Len() != 2 {
		t.Errorf("queue holds %d after rejected submit, want 2", svc.queue.Len())
	}
	// The rejected grid was never tracked: its status is 404, and
	// resubmitting after the queue drains would be a fresh 202.
	resp, err := http.Get(ts.URL + "/sweeps/" + grids[2].Hash())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("rejected sweep status %d, want 404", resp.StatusCode)
	}
}

// TestPriorityDrainOrder submits three paused sweeps at different
// priorities, then starts draining by spinning up a new server on the
// persisted queue — asserting the high-priority sweep ran first via the
// queue snapshot order.
func TestPriorityDrainOrder(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: -1})
	grids := map[string]sweep.Grid{
		"low":  {Specs: []string{"none"}, Workloads: []string{"Apache"}, Scale: testScale},
		"high": {Specs: []string{"none"}, Workloads: []string{"Qry1"}, Scale: testScale},
		"mid":  {Specs: []string{"none"}, Workloads: []string{"Zeus"}, Scale: testScale},
	}
	postGrid(t, ts, grids["low"], "?priority=0")
	postGrid(t, ts, grids["high"], "?priority=9")
	postGrid(t, ts, grids["mid"], "?priority=4")

	snap := svc.queue.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("queue snapshot has %d items, want 3", len(snap))
	}
	wantOrder := []string{grids["high"].Hash(), grids["mid"].Hash(), grids["low"].Hash()}
	for i, p := range snap {
		if p.ID != wantOrder[i] {
			t.Fatalf("drain order %d is %s, want %s (priority desc, seq asc)", i, p.ID, wantOrder[i])
		}
	}
	// Queue position reflects drain order, not submission order.
	run := pollStatus(t, ts, grids["low"].Hash(), "queued")
	if run.Position == nil || *run.Position != 2 {
		t.Errorf("low-priority sweep at queue position %v, want 2", run.Position)
	}
}

// TestCancelQueuedSweep pins DELETE on a queued sweep: it never runs,
// publishes nothing, its stream terminates with the error marker, and
// resubmission re-queues it fresh.
func TestCancelQueuedSweep(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: -1})
	g := smallGrid()
	_, run, _ := postGrid(t, ts, g, "")

	req, _ := http.NewRequest("DELETE", ts.URL+"/sweeps/"+run.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var cancelled sweepRun
	json.NewDecoder(resp.Body).Decode(&cancelled)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || cancelled.Status != "cancelled" {
		t.Fatalf("cancel = %d %+v, want 200 cancelled", resp.StatusCode, cancelled)
	}

	// The result endpoint reports it gone; the ndjson stream carries the
	// error marker and no rows.
	resp, err = http.Get(ts.URL + "/sweeps/" + run.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Errorf("cancelled result status %d, want 410", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/sweeps/" + run.ID + "/stream?format=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"error"`) || strings.Count(strings.TrimSpace(string(body)), "\n") != 0 {
		t.Errorf("cancelled stream = %q, want a single error line", body)
	}

	// A cancelled grid is resubmittable: fresh 202, fresh seq.
	code, again, _ := postGrid(t, ts, g, "")
	if code != http.StatusAccepted || again.Status != "queued" {
		t.Errorf("resubmit after cancel = %d %+v, want 202 queued", code, again)
	}
}

// TestCancelRunningSweep pins DELETE on a running sweep: the engine's
// ctx-cancellation stops it, it publishes no result, and nothing is
// persisted to the store.
func TestCancelRunningSweep(t *testing.T) {
	dir := t.TempDir()
	// Many seeds, serial engine, one worker: the sweep is reliably still
	// running when the DELETE lands.
	g := sweep.Grid{Specs: []string{"none"}, Workloads: []string{"Apache"},
		Seeds: []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32},
		Scale: testScale}
	svc, ts := newTestServer(t, Options{Engine: sweep.Options{Parallel: 1}, Workers: 1, DataDir: dir})
	_, run, _ := postGrid(t, ts, g, "")
	pollStatus(t, ts, run.ID, "running")

	req, _ := http.NewRequest("DELETE", ts.URL+"/sweeps/"+run.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel running: status %d, want 200", resp.StatusCode)
	}
	final := pollStatus(t, ts, run.ID, "cancelled", "done")
	if final.Status != "cancelled" {
		t.Skip("sweep finished before the cancellation landed; nothing to assert")
	}
	if _, ok := svc.store.Get(run.ID); ok {
		t.Error("cancelled sweep persisted a result to the disk store")
	}
	resp, err = http.Get(ts.URL + "/sweeps/" + run.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Errorf("cancelled result status %d, want 410", resp.StatusCode)
	}
}

// TestConcurrentDuplicateSubmits races N identical submissions against
// the dedup check: exactly one must be admitted (202), the rest must hit
// the dedup (200), and only one queue entry may exist.
func TestConcurrentDuplicateSubmits(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: -1})
	g := smallGrid()
	body, _ := json.Marshal(g)

	const n = 16
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/sweeps", "application/json", bytes.NewReader(body))
			if err == nil {
				codes[i] = resp.StatusCode
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()

	accepted, deduped := 0, 0
	for _, c := range codes {
		switch c {
		case http.StatusAccepted:
			accepted++
		case http.StatusOK:
			deduped++
		default:
			t.Errorf("unexpected submit status %d", c)
		}
	}
	if accepted != 1 || deduped != n-1 {
		t.Fatalf("raced submits: %d accepted, %d deduped; want 1/%d", accepted, deduped, n-1)
	}
	if svc.queue.Len() != 1 {
		t.Fatalf("queue holds %d entries after raced duplicate submits, want 1", svc.queue.Len())
	}
}

// TestEvictFinished pins the tracked-sweep bound: past MaxTracked the
// oldest finished sweeps are dropped, while queued and running sweeps are
// never dropped whatever the bound.
func TestEvictFinished(t *testing.T) {
	svc, err := New(Options{Workers: -1, MaxTracked: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())

	mk := func(i int, status string) *sweepRun {
		id := fmt.Sprintf("%016x", i)
		run := &sweepRun{ID: id, Seq: uint64(i), Status: status}
		svc.sweeps[id] = run
		return run
	}
	svc.mu.Lock()
	mk(0, "done")
	mk(1, "queued")
	mk(2, "running")
	mk(3, "done")
	mk(4, "error")
	svc.evictFinishedLocked()
	left := make(map[string]string)
	for id, run := range svc.sweeps {
		left[id] = run.Status
	}
	svc.mu.Unlock()

	// 5 tracked, bound 4: exactly the oldest finished sweep (seq 0) is
	// evicted; newer finished sweeps and the live ones survive.
	if len(left) != 4 {
		t.Fatalf("tracked %d sweeps after eviction, want 4: %v", len(left), left)
	}
	if _, ok := left[fmt.Sprintf("%016x", 0)]; ok {
		t.Error("oldest finished sweep survived eviction")
	}
	for _, i := range []int{1, 2, 3, 4} {
		if _, ok := left[fmt.Sprintf("%016x", i)]; !ok {
			t.Errorf("sweep %d evicted, want kept", i)
		}
	}

	// Drop the bound below the live count: finished sweeps all go, but
	// queued/running are never evicted even with the table above the bound.
	svc.mu.Lock()
	svc.opts.MaxTracked = 1
	svc.evictFinishedLocked()
	left = make(map[string]string)
	for id, run := range svc.sweeps {
		left[id] = run.Status
	}
	svc.mu.Unlock()
	if len(left) != 2 {
		t.Fatalf("tracked %d sweeps with bound 1, want the 2 live ones: %v", len(left), left)
	}
	for _, i := range []int{1, 2} {
		if _, ok := left[fmt.Sprintf("%016x", i)]; !ok {
			t.Fatalf("live sweep %d evicted; tracked now %v", i, left)
		}
	}
}

// TestDiskStoreServesAcrossRestart is the retention acceptance pin: a
// finished grid is served byte-identically by a freshly started server on
// the same data dir, without re-simulating.
func TestDiskStoreServesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	g := smallGrid()

	svc1, err := New(Options{Engine: sweep.Options{Parallel: 4}, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(svc1)
	_, run, _ := postGrid(t, ts1, g, "")
	pollStatus(t, ts1, run.ID, "done")
	resp, err := http.Get(ts1.URL + "/sweeps/" + run.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	ts1.Close()
	if err := svc1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// "Kill" and restart: a new process on the same data dir.
	svc2, ts2 := newTestServer(t, Options{Engine: sweep.Options{Parallel: 4}, DataDir: dir})
	code, restored, _ := postGrid(t, ts2, g, "")
	if code != http.StatusOK {
		t.Fatalf("restart submit status %d, want 200 (disk hit)", code)
	}
	if restored.Status != "done" || restored.Source != "disk" {
		t.Fatalf("restart submit = %+v, want done from disk", restored)
	}
	resp, err = http.Get(ts2.URL + "/sweeps/" + run.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(got, want) {
		t.Fatalf("disk-served result differs from original:\n--- restart ---\n%s\n--- original ---\n%s", got, want)
	}
	// No simulation happened in the new process: the engine pool is
	// untouched.
	if n := svc2.Engine().RetainedSystems(); n != 0 {
		t.Errorf("restarted server simulated (%d pooled systems) despite the disk hit", n)
	}
	// The restored sweep streams too — replayed from the stored result,
	// byte-identical to the stream the original server produced.
	resp, err = http.Get(ts2.URL + "/sweeps/" + run.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	streamed, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(streamed, want) {
		t.Fatal("disk-restored stream differs from the stored result bytes")
	}
}

// TestQueuePersistsAcrossRestart pins graceful shutdown: queued sweeps
// survive Close as queue.json — in drain order, with seq and priority —
// and a new server on the same dir re-admits and runs them.
func TestQueuePersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	svc1, err := New(Options{Workers: -1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(svc1)
	gLow := sweep.Grid{Specs: []string{"none"}, Workloads: []string{"Apache"}, Scale: testScale}
	gHigh := sweep.Grid{Specs: []string{"none"}, Workloads: []string{"Qry1"}, Scale: testScale}
	postGrid(t, ts1, gLow, "?priority=0")
	postGrid(t, ts1, gHigh, "?priority=5")
	ts1.Close()
	if err := svc1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	qf, err := os.ReadFile(filepath.Join(dir, "queue.json"))
	if err != nil {
		t.Fatalf("queue not persisted: %v", err)
	}
	items, err := LoadPending(bytes.NewReader(qf))
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 || items[0].ID != gHigh.Hash() || items[0].Priority != 5 {
		t.Fatalf("persisted queue = %+v, want [high low] with priorities", items)
	}

	// Restart with workers: the restored queue drains to completion.
	_, ts2 := newTestServer(t, Options{Engine: sweep.Options{Parallel: 2}, Workers: 1, DataDir: dir})
	for _, g := range []sweep.Grid{gHigh, gLow} {
		final := pollStatus(t, ts2, g.Hash(), "done")
		if final.Status != "done" {
			t.Fatalf("restored sweep %s ended %q", g.Hash(), final.Status)
		}
	}
	// The consumed queue file is gone until the next shutdown persists a
	// new one.
	if _, err := os.Stat(filepath.Join(dir, "queue.json")); !os.IsNotExist(err) {
		t.Errorf("queue.json still present after restore (err=%v)", err)
	}
}

func TestServerErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{Engine: sweep.Options{Parallel: 2}})

	// Malformed and invalid grids: 400. core_parallel is a removed field,
	// so it is unknown and the error names it.
	for _, body := range []string{"{not json", `{"specs":["PV-8"],"workloads":["Apache"],"core_parallel":true}`} {
		code, msg := postBody(t, ts.URL+"/sweeps", body)
		if code != http.StatusBadRequest {
			t.Errorf("grid %s: status %d (%s), want 400", body, code, msg)
		}
		if strings.Contains(body, "core_parallel") && !strings.Contains(msg, "core_parallel") {
			t.Errorf("grid %s: error %s does not name the unknown field", body, msg)
		}
	}
	if code, _, _ := postGrid(t, ts, sweep.Grid{Specs: []string{"no-such-spec"}}, ""); code != http.StatusBadRequest {
		t.Errorf("unknown spec: status %d, want 400", code)
	}
	// Bad priority: 400.
	if code, _, _ := postGrid(t, ts, smallGrid(), "?priority=banana"); code != http.StatusBadRequest {
		t.Errorf("bad priority: status %d, want 400", code)
	}

	// Unknown sweep ids: 404 for status, result, stream and cancel.
	for _, req := range []struct{ method, path string }{
		{"GET", "/sweeps/doesnotexist"},
		{"GET", "/sweeps/doesnotexist/result"},
		{"GET", "/sweeps/doesnotexist/stream"},
		{"DELETE", "/sweeps/doesnotexist"},
	} {
		r, _ := http.NewRequest(req.method, ts.URL+req.path, nil)
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", req.method, req.path, resp.StatusCode)
		}
	}

	// Unknown formats: 400.
	g := sweep.Grid{Specs: []string{"none"}, Workloads: []string{"Apache"}, Scale: testScale}
	_, run, _ := postGrid(t, ts, g, "")
	pollStatus(t, ts, run.ID, "done")
	for _, path := range []string{"/result?format=yaml", "/stream?format=yaml"} {
		resp, err := http.Get(ts.URL + "/sweeps/" + run.ID + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}
	// Cancelling a finished sweep: 409.
	r, _ := http.NewRequest("DELETE", ts.URL+"/sweeps/"+run.ID, nil)
	resp, err := http.DefaultClient.Do(r)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("cancel finished sweep: status %d, want 409", resp.StatusCode)
	}
}

// TestRateLimiterSpacesStarts pins the rate limiter: with RatePerSec set,
// consecutive sweep starts are spaced at least an interval apart.
func TestRateLimiterSpacesStarts(t *testing.T) {
	svc, err := New(Options{Workers: -1, RatePerSec: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	start := time.Now()
	for i := 0; i < 3; i++ {
		svc.rateWait()
	}
	// Three starts at 50/s: the third completes no earlier than 2
	// intervals (40ms) after the first.
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Errorf("three rate-limited starts took %v, want >= 40ms", elapsed)
	}
}
