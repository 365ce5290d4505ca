package main

import (
	"context"
	"time"

	"pvsim/internal/sweep"
)

// sweepTiming is one timed grid run: Grid.Plan, Engine.Run with its
// Progress callbacks, and the Result.JSON report.
type sweepTiming struct {
	start, planned, ran, encoded time.Time
	plan                         sweep.Plan
	done                         []time.Time // one per finished simulation
	retained                     int         // pooled systems after the run
	report                       []byte
}

func (s sweepTiming) planTime() time.Duration { return s.planned.Sub(s.start) }

// timedSweep plans, runs and encodes g on eng, recording a span for each
// call under run id.
func timedSweep(tr *tracer, eng *sweep.Engine, g sweep.Grid, run int) (sweepTiming, error) {
	var s sweepTiming
	var err error
	s.start = time.Now()
	s.plan, err = g.Plan()
	if err != nil {
		return s, err
	}
	s.planned = time.Now()
	tr.add("sweep.Grid.Plan", s.start, s.planned, -1, run)
	// Progress calls are serialized by the engine and Run returns after
	// the last one, so done needs no lock of its own.
	res, err := eng.Run(context.Background(), g, func(int, int) { s.done = append(s.done, time.Now()) })
	s.ran = time.Now()
	if err != nil {
		return s, err
	}
	runSpan := tr.add("sweep.Engine.Run", s.planned, s.ran, -1, run)
	prev := s.planned
	for _, t := range s.done {
		tr.add("sweep.job", prev, t, runSpan, run)
		prev = t
	}
	s.retained = eng.RetainedSystems()
	s.report, err = res.JSON()
	s.encoded = time.Now()
	tr.add("report.Result.JSON", s.ran, s.encoded, -1, run)
	return s, err
}

// setSweepMetrics reports the sweep and report layers from timed runs on
// engines with the given parallelism.
func setSweepMetrics(b *bench, runs []sweepTiming, parallel int) {
	var plans, gaps, tails, encodes []time.Duration
	var planned []float64
	for _, s := range runs {
		plans = append(plans, s.planTime())
		planned = append(planned, float64(s.plan.TotalSims))
		prev := s.planned
		for _, t := range s.done {
			gaps = append(gaps, t.Sub(prev))
			prev = t
		}
		// The tail runs from the (total-parallel)-th completion to the
		// last: the stretch in which workers go idle one by one.
		from := s.planned
		if k := len(s.done) - parallel; k > 0 {
			from = s.done[k-1]
		}
		tails = append(tails, s.ran.Sub(from))
		encodes = append(encodes, s.encoded.Sub(s.ran))
	}
	b.set("sweep.plan_s", medianDur(plans))
	b.set("sweep.sims_planned", median(planned))
	b.set("sweep.pool_retained", float64(runs[len(runs)-1].retained))
	b.set("sweep.job_gap_s_p50", medianDur(gaps))
	b.set("sweep.tail_s", medianDur(tails))
	b.set("report.encode_s", medianDur(encodes))
}
