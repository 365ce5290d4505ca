package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"pvsim/internal/sweep"
)

func TestServeGridsDeterministic(t *testing.T) {
	a, b := serveGrids(7, 200), serveGrids(7, 200)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two grid sequences")
	}
	if fa, fb := repeatCellFrac(a), repeatCellFrac(b); fa != fb {
		t.Fatalf("repeat_cell_frac %v then %v for one seed", fa, fb)
	}
	if reflect.DeepEqual(a, serveGrids(8, 200)) {
		t.Fatal("seeds 7 and 8 gave the same grid sequence")
	}
	for i, g := range a {
		if err := g.Validate(); err != nil {
			t.Fatalf("grid %d: %v", i, err)
		}
		if n := len(g.Specs) * len(g.Workloads); n < 1 || n > 4 || len(g.Seeds) != 1 {
			t.Fatalf("grid %d outside the generator's axes: %+v", i, g)
		}
	}
}

func TestRepeatCellFrac(t *testing.T) {
	grids := []sweep.Grid{
		// 2 baselines + 2 jobs, all new.
		{Specs: []string{"PV-8"}, Workloads: []string{"DB2", "Apache"}, Seeds: []uint64{1}},
		// DB2 baseline and DB2/PV-8 repeat; the 1K-11a job is new.
		{Specs: []string{"PV-8", "1K-11a"}, Workloads: []string{"DB2"}, Seeds: []uint64{1}},
		// Another seed repeats nothing.
		{Specs: []string{"PV-8"}, Workloads: []string{"DB2"}, Seeds: []uint64{2}},
	}
	if got, want := repeatCellFrac(grids), 2.0/9.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("repeat_cell_frac = %v, want %v", got, want)
	}
	if got := repeatCellFrac(nil); got != 0 {
		t.Fatalf("repeat_cell_frac of no grids = %v, want 0", got)
	}
}

func TestPercentile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0.25, 2},
		{[]float64{1, 2, 3, 4, 5}, 0.75, 4},
		{[]float64{1, 2, 3, 4}, 0.25, 1.75},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 0.9, 91},
		{[]float64{7}, 0.9, 7},
	} {
		xs := append([]float64(nil), c.xs...)
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
		if !reflect.DeepEqual(xs, c.xs) {
			t.Errorf("percentile reordered its input to %v", c.xs)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

func TestEndToEndDividesByReference(t *testing.T) {
	b := &bench{metrics: map[string]float64{}}
	ms := func(xs ...int) []time.Duration {
		var ds []time.Duration
		for _, x := range xs {
			ds = append(ds, time.Duration(x)*time.Millisecond)
		}
		return ds
	}
	b.setEndToEnd(ms(5, 1, 3), ms(400, 100, 200, 300, 500), ms(100, 50, 200), 12)
	for name, want := range map[string]float64{"setup_s": 0.003, "op_p25_ref": 2, "peak_rss_mb": 12} {
		if got := b.metrics[name]; math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if b.opP25 != 0.2 || b.refMedian != 0.1 {
		t.Errorf("raw figures %v and %v, want 0.2 and 0.1", b.opP25, b.refMedian)
	}
}

func TestReferenceRepeatsItsWork(t *testing.T) {
	if a, b := referenceCopy(), referenceCopy(); a != b {
		t.Errorf("two reference runs gave checksums %d and %d", a, b)
	}
}

func TestDigestRejectsFlippedByte(t *testing.T) {
	report := []byte(`{"grid": {"specs": ["PV-8"]}, "rows": []}`)
	want := digest(report)
	if err := checkDigest(want, report); err != nil {
		t.Fatalf("intact report rejected: %v", err)
	}
	for i := range report {
		flipped := append([]byte(nil), report...)
		flipped[i] ^= 0x01
		if checkDigest(want, flipped) == nil {
			t.Fatalf("report with byte %d flipped passed the digest check", i)
		}
	}
}

func TestRecordedDigestsCoverEverySeed(t *testing.T) {
	for _, w := range []string{"grid-timing", "run-pv8"} {
		for seed := uint64(0); seed < 2*digestSlots; seed++ {
			d, err := wantDigest(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			if len(d) != 64 {
				t.Fatalf("%s seed %d: digest %q is not SHA-256 hex", w, seed, d)
			}
		}
	}
}

func TestVerifyCountsMismatches(t *testing.T) {
	g := sweep.Grid{Specs: []string{"PV-8"}, Workloads: []string{"DB2"}, Seeds: []uint64{1}, Scale: 0.001}
	good, err := sweep.New(sweep.Options{}).Run(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	goodJSON, err := good.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{metrics: map[string]float64{}}
	runs := verify(b, newTracer(false), []*request{{idx: 0, grid: g, body: goodJSON}})
	if b.failed != 0 || len(runs) != 1 {
		t.Fatalf("intact stream: %d failures, %d reference runs", b.failed, len(runs))
	}
	bad := append([]byte(nil), goodJSON...)
	bad[len(bad)/2] ^= 0x01
	b = &bench{metrics: map[string]float64{}}
	verify(b, newTracer(false), []*request{{idx: 0, grid: g, body: goodJSON}, {idx: 1, grid: g, body: bad}})
	if b.attempted != 2 || b.failed != 1 {
		t.Fatalf("attempted %d, failed %d; want 2 and 1", b.attempted, b.failed)
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind    string
		got     map[string]string
		entries []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		want := map[string]string{}
		for _, m := range c.entries {
			want[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(c.got, want) {
			t.Errorf("%s: the benchmark reports %v, BENCHMARK.json lists %v", c.kind, c.got, want)
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := sortedKeys(workloadFuncs); !reflect.DeepEqual(got, names) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", got, names)
	}
}
