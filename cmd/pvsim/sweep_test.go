package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pvsim/internal/service"
	"pvsim/internal/sweep"
)

// goldenArgs is the fixed small grid the golden file pins; regenerate with:
//
//	go run ./cmd/pvsim sweep -specs "16-11a,PV-8" -workloads "Apache,Qry1" \
//	    -seeds 42,7 -pvcache 8 -scale 0.0025 -o cmd/pvsim/testdata/sweep_golden.txt
var goldenArgs = []string{"sweep", "-specs", "16-11a,PV-8", "-workloads", "Apache,Qry1",
	"-seeds", "42,7", "-pvcache", "8", "-scale", "0.0025"}

// TestSweepGolden pins `pvsim sweep` output for a small fixed grid against
// the checked-in golden file: the rendered report must be byte-stable
// across runs, machines and parallelism.
func TestSweepGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "sweep_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"1", "8"} {
		var out bytes.Buffer
		if err := run(append(goldenArgs, "-p", p), &out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("-p %s sweep output diverged from testdata/sweep_golden.txt:\n--- got ---\n%s\n--- want ---\n%s",
				p, out.Bytes(), want)
		}
	}
}

// TestSweepGridFile runs the same grid through -grid file.json and expects
// the identical golden bytes: the two grid sources must be equivalent.
func TestSweepGridFile(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "sweep_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	g := sweep.Grid{
		Specs:     []string{"16-11a", "PV-8"},
		Workloads: []string{"Apache", "Qry1"},
		PVCache:   []int{8},
		Seeds:     []uint64{42, 7},
		Scale:     0.0025,
	}
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"sweep", "-grid", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("-grid file output diverged from flag-built grid:\n--- got ---\n%s\n--- want ---\n%s", out.Bytes(), want)
	}
}

// TestSweepMixesFlag drives the mix axis through the CLI: two mixes (one
// heterogeneous, one phased) x two PVCache sizes, -p 1 vs -p 8
// byte-identical — the acceptance matrix of the scenario subsystem, at the
// flag-parsing level.
func TestSweepMixesFlag(t *testing.T) {
	args := []string{"sweep", "-specs", "PV-8", "-mixes", "oltp-web,DB2@500+Apache@500",
		"-pvcache", "4,8", "-phaseflush", "-scale", "0.0025"}
	var serial, parallel bytes.Buffer
	if err := run(append(args, "-p", "1"), &serial); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-p", "8"), &parallel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Fatalf("-p 8 mixes sweep differs from -p 1:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.Bytes(), parallel.Bytes())
	}
	out := serial.String()
	for _, want := range []string{"oltp-web", "DB2@500+Apache@500", "PV-8", "phase_flush=true"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output lacks %q:\n%s", want, out)
		}
	}
}

func TestSweepErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"sweep"}, &out); err == nil {
		t.Error("empty grid accepted")
	}
	if err := run([]string{"sweep", "-specs", "no-such-spec"}, &out); err == nil {
		t.Error("unknown spec accepted")
	}
	if err := run([]string{"sweep", "-specs", "PV-8", "-mixes", "no-such-mix"}, &out); err == nil {
		t.Error("unknown mix accepted")
	}
	if err := run([]string{"sweep", "-specs", "PV-8", "-mixes", "DB2@x+Apache"}, &out); err == nil {
		t.Error("malformed phase spec accepted")
	}
	if err := run([]string{"sweep", "-specs", "PV-8", "-seeds", "banana"}, &out); err == nil {
		t.Error("non-numeric seed accepted")
	}
	if err := run([]string{"sweep", "-specs", "PV-8", "-grid", "/does/not/exist.json"}, &out); err == nil {
		t.Error("missing grid file accepted")
	}
	// Non-finite and overflowing scales: NaN used to panic in Grid.Hash,
	// and 1e300 ran at the 1000-access floor.
	for _, scale := range []string{"NaN", "+Inf", "1e300"} {
		err := run([]string{"sweep", "-specs", "PV-8", "-workloads", "Apache", "-scale", scale}, &out)
		if err == nil || !strings.Contains(err.Error(), "scale") {
			t.Errorf("-scale %s: error %v, want a scale error", scale, err)
		}
	}
	// A PVCache larger than the table it caches used to be allocated
	// whole (a billion entries killed the process); it is refused, naming
	// both numbers.
	err := run([]string{"sweep", "-specs", "PV-8", "-workloads", "Apache", "-pvcache", "1000000000", "-scale", "0.0025"}, &out)
	if err == nil || !strings.Contains(err.Error(), "1000000000") || !strings.Contains(err.Error(), "1024") {
		t.Errorf("-pvcache 1000000000: error %v, want one naming the entries and the table's 1024 sets", err)
	}
	// The parallel stepper is gone: its flag is unknown, and a grid file
	// that still names its field is refused, naming the field.
	err = run([]string{"sweep", "-specs", "PV-8", "-workloads", "Apache", "-core-parallel"}, &out)
	if err == nil || !strings.Contains(err.Error(), "core-parallel") {
		t.Errorf("-core-parallel: error %v, want an unknown-flag error naming it", err)
	}
	gridFile := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(gridFile, []byte(`{"specs":["PV-8"],"workloads":["Apache"],"scale":0.0025,"core_parallel":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"sweep", "-grid", gridFile}, &out)
	if err == nil || !strings.Contains(err.Error(), "core_parallel") {
		t.Errorf("grid naming core_parallel: error %v, want an unknown-field error naming it", err)
	}
	// Flags-first invocation: the error must point at the subcommand
	// syntax, not claim "unknown experiment".
	err = run([]string{"-p", "4", "sweep", "-specs", "PV-8"}, &out)
	if err == nil || !strings.Contains(err.Error(), "subcommand") {
		t.Errorf("flags-before-subcommand error = %v, want a subcommand hint", err)
	}
}

// TestServeEndToEnd drives the serve surface the way a client would —
// submit, poll, fetch — and requires the served bytes to equal the same
// grid run in-process through the engine.
func TestServeEndToEnd(t *testing.T) {
	// The handler under test is exactly what `pvsim serve` mounts.
	svc, err := service.New(service.Options{Engine: sweep.Options{Parallel: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	ts := httptest.NewServer(svc)
	defer ts.Close()

	g := sweep.Grid{Specs: []string{"PV-8"}, Workloads: []string{"Apache"}, Seeds: []uint64{42}, Scale: 0.0025}
	body, _ := json.Marshal(g)
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || status.ID == "" {
		t.Fatalf("submit: status %d, body %+v", resp.StatusCode, status)
	}

	deadline := time.Now().Add(30 * time.Second)
	for status.Status != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("sweep still %q after 30s", status.Status)
		}
		time.Sleep(5 * time.Millisecond)
		resp, err := http.Get(ts.URL + "/sweeps/" + status.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&status)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if status.Status == "error" {
			t.Fatal("sweep errored")
		}
	}

	resp, err = http.Get(ts.URL + "/sweeps/" + status.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	served, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	inProcess, err := sweep.New(sweep.Options{Parallel: 1}).Run(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := inProcess.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want) {
		t.Fatalf("served result != in-process run:\n--- served ---\n%s\n--- want ---\n%s", served, want)
	}
}

// TestRunJSONFormat covers the new json emitter on a paper experiment.
func TestRunJSONFormat(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-format", "json", "table3"}, &out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		ID string `json:"ID"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("json output does not parse: %v\n%s", err, out.String())
	}
	if doc.ID != "table3" {
		t.Errorf("doc ID = %q, want table3", doc.ID)
	}
}
