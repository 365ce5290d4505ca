package service

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"pvsim/internal/sweep"
)

// TestQueuePositionZeroVisible is the regression pin for the omitempty
// Position bug: a single queued sweep is at position 0 — "you're next" —
// and that must survive into the JSON, where omitempty on a plain int
// used to erase it. Checked on the raw bytes of both the status and list
// endpoints, since the decoded struct can't tell absent from zero.
func TestQueuePositionZeroVisible(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: -1}) // admit but never drain
	code, run, _ := postGrid(t, ts, smallGrid(), "")
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	for _, url := range []string{ts.URL + "/sweeps/" + run.ID, ts.URL + "/sweeps"} {
		body := httpGetBody(t, url)
		if !bytes.Contains(body, []byte(`"position": 0`)) {
			t.Errorf("GET %s does not show the queued sweep at position 0:\n%s", url, body)
		}
	}
}

// TestSubmitRejectsBadScale: grids whose scale is not finite or overflows
// the access count are refused with 400, and the server keeps serving. JSON
// has no NaN or Infinity literals, so those bodies fail to decode; 1e300
// decodes and fails Grid.Validate.
func TestSubmitRejectsBadScale(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: -1})
	for _, scale := range []string{"NaN", "Infinity", "+Inf", "1e300", "1e309"} {
		body := `{"specs":["PV-8"],"workloads":["Apache"],"scale":` + scale + `}`
		resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("scale %s: %v", scale, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("scale %s: status %d (%s), want 400", scale, resp.StatusCode, msg)
		}
	}
	if code, _, _ := postGrid(t, ts, smallGrid(), ""); code != http.StatusAccepted {
		t.Errorf("valid grid after bad scales: status %d, want 202", code)
	}
}

// hugeGridBody is a syntactically valid grid body of about 2 MiB, twice
// maxBodyBytes: a long workload list.
func hugeGridBody() string {
	return `{"specs":["PV-8"],"workloads":[` + strings.Repeat(`"Apache",`, (2<<20)/9) + `"Apache"]}`
}

// postBody posts a raw body and returns the status and the answer.
func postBody(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(msg)
}

// TestRejectsOversizedBody pins the request-body cap: a 2 MiB body to
// POST /sweeps, POST /workers or a shard worker's POST /shard is a 413
// naming the limit, not a decoder buffer that grows with the request, and
// both servers keep serving valid requests afterwards.
func TestRejectsOversizedBody(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: -1})
	_, ws := startShardWorker(t)
	for _, url := range []string{ts.URL + "/sweeps", ts.URL + "/workers", ws.URL + "/shard"} {
		body := hugeGridBody()
		if strings.HasSuffix(url, "/shard") {
			body = `{"grid":` + body + `,"shard":{"start":0,"end":1}}`
		}
		code, msg := postBody(t, url, body)
		if code != http.StatusRequestEntityTooLarge || !strings.Contains(msg, "1048576") {
			t.Errorf("%s: status %d (%.200s), want 413 naming the limit", url, code, msg)
		}
	}
	if code, _, _ := postGrid(t, ts, smallGrid(), ""); code != http.StatusAccepted {
		t.Errorf("valid grid after the oversized one: status %d, want 202", code)
	}
	g := smallGrid()
	shards, err := g.Shards(1)
	if err != nil {
		t.Fatal(err)
	}
	req, err := jsonEncode(ShardRequest{Grid: g, Shard: shards[0]})
	if err != nil {
		t.Fatal(err)
	}
	if code, msg := postBody(t, ws.URL+"/shard", string(req)); code != http.StatusOK {
		t.Errorf("valid shard after the oversized one: status %d (%s), want 200", code, msg)
	}
}

// TestSubmitRejectsOversizedPVCache pins the fail-closed PVCache cap: a
// grid asking for more PVCache entries than the table has sets is a 400
// naming both numbers, not a billion-entry allocation that kills the
// server, and the server keeps admitting valid grids afterwards.
func TestSubmitRejectsOversizedPVCache(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: -1})
	body := `{"specs":["PV-8"],"workloads":["Apache"],"pvcache":[1000000000]}`
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d (%s), want 400", resp.StatusCode, msg)
	}
	if !strings.Contains(string(msg), "1000000000") || !strings.Contains(string(msg), "1024") {
		t.Errorf("error body %q does not name the entries and the set count", msg)
	}
	if code, _, _ := postGrid(t, ts, smallGrid(), ""); code != http.StatusAccepted {
		t.Errorf("valid grid after the oversized one: status %d, want 202", code)
	}
}

// TestSubmitExpandsGridOnce pins the admission cost: one submit performs
// exactly one grid expansion (Grid.Plan), not one per derived quantity.
// Before the fix, newQueuedRun expanded once for the simulation total and
// again for the stream header — both under the service mutex.
func TestSubmitExpandsGridOnce(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: -1}) // no drain: no engine-side expansions
	before := sweep.JobExpansions()
	if code, _, _ := postGrid(t, ts, smallGrid(), ""); code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	if got := sweep.JobExpansions() - before; got != 1 {
		t.Errorf("one submit performed %d grid expansions, want 1", got)
	}
}

// TestRestoredStatusParity pins the disk-restore accounting: a sweep
// served from the store by a fresh process must report the same Done and
// Total the original run finished with. Before the fix the fallback
// counted res.Jobs, which excludes baseline runs.
func TestRestoredStatusParity(t *testing.T) {
	dir := t.TempDir()
	g := smallGrid()

	_, ts1 := newTestServer(t, Options{Engine: sweep.Options{Parallel: 2}, DataDir: dir})
	code, run, _ := postGrid(t, ts1, g, "")
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	orig := pollStatus(t, ts1, run.ID, "done")
	if orig.Done != orig.Total || orig.Total == 0 {
		t.Fatalf("original run finished at %d/%d", orig.Done, orig.Total)
	}

	_, ts2 := newTestServer(t, Options{DataDir: dir})
	code, restored, _ := postGrid(t, ts2, g, "")
	if code != http.StatusOK || restored.Source != "disk" {
		t.Fatalf("resubmit to fresh process: status %d, source %q; want 200 from disk", code, restored.Source)
	}
	if restored.Done != orig.Done || restored.Total != orig.Total {
		t.Errorf("restored sweep reports %d/%d, original finished at %d/%d", restored.Done, restored.Total, orig.Done, orig.Total)
	}
}

// TestStreamWaiterRemovedOnDisconnect is the waiter-leak pin: a client
// that opens a stream on a parked sweep and then goes away must take its
// wait channel out of the feed's waiter list at once — not linger until
// the next append/finish, which for a sweep deep in the queue may be
// arbitrarily far away. All three framings are exercised.
func TestStreamWaiterRemovedOnDisconnect(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: -1}) // queued forever: nothing ever wakes the feed
	code, run, _ := postGrid(t, ts, smallGrid(), "")
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	svc.mu.Lock()
	f := svc.sweeps[run.ID].feed
	svc.mu.Unlock()

	waiters := func() int {
		f.mu.Lock()
		defer f.mu.Unlock()
		return len(f.waiters)
	}
	waitFor := func(want int, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for waiters() != want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: feed holds %d waiters, want %d", what, waiters(), want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	formats := []string{"json", "ndjson", "sse"}
	ctx, cancel := context.WithCancel(context.Background())
	// Registered after the server's cleanup, so it runs first (LIFO):
	// even a failing test unblocks the parked handlers before teardown
	// waits on their connections.
	t.Cleanup(cancel)
	done := make(chan struct{}, len(formats))
	for _, format := range formats {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/sweeps/"+run.ID+"/stream?format="+format, nil)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				// Hold the stream open — the framed-json handler answers
				// its header immediately — until cancel tears it down.
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			done <- struct{}{}
		}()
	}
	waitFor(len(formats), "after opening streams")
	cancel()
	for range formats {
		<-done
	}
	waitFor(0, "after the clients disconnected")
}
