package main

import (
	"context"
	"runtime"
	"time"

	"pvsim/internal/experiments"
	"pvsim/internal/sweep"
	"pvsim/internal/workloads"
)

// gridScale sizes the Figure-9 grid so a 30-second window repeats it 20 to
// 60 times on two CPUs, depending on how loaded the host is.
const gridScale = 0.05

// figure9Grid is the paper-reproduction sweep `pvsim sweep -timing -format
// json` runs for Figure 9: a dedicated 1K-set table and PV-8 at three
// PVCache sizes across the eight Table-2 workloads, IPC model on. It
// expands to 32 jobs plus 8 matched baselines.
func figure9Grid(seed uint64) sweep.Grid {
	return sweep.Grid{
		Specs:   []string{"1K-11a", "PV-8"},
		PVCache: []int{4, 8, 16},
		Seeds:   []uint64{simSeed(seed)},
		Scale:   gridScale,
		Timing:  true,
	}
}

// figure9Output runs the grid once on a fresh engine and returns its JSON
// report.
func figure9Output(seed uint64) ([]byte, error) {
	res, err := sweep.New(sweep.Options{Parallel: runtime.NumCPU()}).Run(context.Background(), figure9Grid(seed), nil)
	if err != nil {
		return nil, err
	}
	return res.JSON()
}

// gridAccesses counts the simulated accesses of sims simulations of g's
// jobs: each steps every core through warmup and measure.
func gridAccesses(g sweep.Grid, sims int) (int, error) {
	jobs, err := g.Jobs()
	if err != nil || len(jobs) == 0 {
		return 0, err
	}
	return sims * runAccesses(jobs[0].Config), nil
}

// runGridTiming repeats the Figure-9 sweep on a fresh engine until the
// window closes. Each repetition's set-up is sweep.New plus Grid.Plan; its
// operation is Engine.Run; its report must match the recorded digest.
func runGridTiming(b *bench) error {
	grid := figure9Grid(b.seed)
	want, err := wantDigest("grid-timing", b.seed)
	if err != nil {
		return err
	}
	parallel := runtime.NumCPU()
	var tracedRuns []sweepTiming
	_, err = b.repeat(func(tr *tracer, i int) (time.Time, time.Time, time.Time, error) {
		t0 := time.Now()
		eng := sweep.New(sweep.Options{Parallel: parallel})
		tr.add("sweep.New", t0, time.Now(), -1, i)
		s, err := timedSweep(tr, eng, grid, i)
		if err == nil {
			err = checkDigest(want, s.report)
		}
		if err != nil {
			return t0, s.planned, s.ran, err
		}
		b.sims += s.plan.TotalSims
		if tr == b.tr {
			tracedRuns = append(tracedRuns, s)
		}
		return t0, s.planned, s.ran, nil
	})
	if err != nil {
		return err
	}
	if b.accesses, err = gridAccesses(grid, b.sims); err != nil || !b.traced {
		return err
	}
	setSweepMetrics(b, tracedRuns, parallel)

	// The simulator layers are probed on the grid's first cell, and the
	// service layers on a short sharded session from the same seed.
	w, err := workloads.ByName(workloads.Names()[0])
	if err != nil {
		return err
	}
	if err := simLayers(b, experiments.ConfigFor(w, gridScale, simSeed(b.seed)), 5, -1); err != nil {
		return err
	}
	return serviceProbe(b, true)
}
