package main

import (
	"encoding/json"
	"time"

	"pvsim/internal/experiments"
	"pvsim/internal/sim"
	"pvsim/internal/sweep"
	"pvsim/internal/timing"
	"pvsim/internal/workloads"
	"pvsim/pv"
)

// pv8Config is the headline single run: PV-8 on the oltp-web mix at full
// scale, with the passive cost model on.
func pv8Config(seed uint64) (sim.Config, error) {
	mix, err := workloads.MixByName("oltp-web")
	if err != nil {
		return sim.Config{}, err
	}
	cfg, err := experiments.ConfigForMix(mix, 1.0, simSeed(seed))
	if err != nil {
		return sim.Config{}, err
	}
	if cfg.Prefetch, err = pv.SpecByName("PV-8"); err != nil {
		return sim.Config{}, err
	}
	cfg.Cost = timing.Config{Enabled: true}
	return cfg, nil
}

// resultSummary is the part of a sim.Result the digest covers: every
// statistic the run produced.
func resultSummary(res sim.Result) ([]byte, error) { return json.Marshal(res) }

// pv8Output runs the headline configuration once and returns its summary.
func pv8Output(seed uint64) ([]byte, error) {
	cfg, err := pv8Config(seed)
	if err != nil {
		return nil, err
	}
	return resultSummary(sim.NewSystem(cfg).Run())
}

func runAccesses(cfg sim.Config) int { return cfg.Hier.Cores * (cfg.Warmup + cfg.Measure) }

// runPV8 repeats the headline run on one goroutine until the window
// closes: sim.NewSystem is the set-up, System.Run the operation, and each
// result summary must match the recorded digest.
func runPV8(b *bench) error {
	cfg, err := pv8Config(b.seed)
	if err != nil {
		return err
	}
	want, err := wantDigest("run-pv8", b.seed)
	if err != nil {
		return err
	}
	b.refCopies = 1
	ops, err := b.repeat(func(tr *tracer, i int) (time.Time, time.Time, time.Time, error) {
		t0 := time.Now()
		sys := sim.NewSystem(cfg)
		t1 := time.Now()
		res := sys.Run()
		t2 := time.Now()
		tr.add("sim.NewSystem", t0, t1, -1, i)
		tr.add("sim.System.Run", t1, t2, -1, i)
		sum, err := resultSummary(res)
		if err == nil {
			err = checkDigest(want, sum)
		}
		if err == nil {
			b.sims++
		}
		return t0, t1, t2, err
	})
	b.accesses = b.sims * runAccesses(cfg)
	if err != nil || !b.traced {
		return err
	}
	// sim.ns_per_access is the workload's own System.Run time per access;
	// the layer probe then splits the same configuration by module.
	runNs := medianDur(ops) * 1e9 / float64(runAccesses(cfg))
	cell := cfg
	cell.Prefetch = sim.Baseline
	cell.Cost = timing.Config{}
	if err := simLayers(b, cell, 2, runNs); err != nil {
		return err
	}
	// The sweep layers are probed on the same cell as a one-job grid at a
	// tenth of the scale.
	g := sweep.Grid{Specs: []string{"PV-8"}, Mixes: []string{"oltp-web"}, Seeds: []uint64{cfg.Seed}, Scale: 0.1, Cost: true}
	if err := sweepProbe(b, g); err != nil {
		return err
	}
	return serviceProbe(b, true)
}
