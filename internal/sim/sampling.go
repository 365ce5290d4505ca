package sim

import "fmt"

// SMARTSConfig configures periodic-sampling timing measurement in the
// style of SMARTS [34] as the paper uses it (§4.1): "each sample
// measurement involves 100K cycles of detailed warming followed by 50K
// cycles of measurement collection", with functional fast-forwarding in
// between. Units here are per-core accesses, the simulator's native step.
type SMARTSConfig struct {
	// Samples is the number of measurement windows.
	Samples int
	// DetailWarm is the detailed (timed but unmeasured) warm-up per
	// sample, re-priming timing state after a functional gap.
	DetailWarm int
	// Measure is the measured access count per sample.
	Measure int
	// FastForward is the functional gap between samples.
	FastForward int
}

// DefaultSMARTS spreads 20 samples of 2K-warm/1K-measure across a run,
// mirroring the paper's 2:1 warm:measure ratio.
func DefaultSMARTS() SMARTSConfig {
	return SMARTSConfig{Samples: 20, DetailWarm: 2000, Measure: 1000, FastForward: 17000}
}

// Validate checks the sampling plan.
func (c SMARTSConfig) Validate() error {
	if c.Samples <= 0 || c.DetailWarm < 0 || c.Measure <= 0 || c.FastForward < 0 {
		return fmt.Errorf("sim: bad SMARTS plan %+v", c)
	}
	return nil
}

// TotalAccesses is the per-core access count the plan will simulate after
// warm-up.
func (c SMARTSConfig) TotalAccesses() int {
	return c.Samples * (c.DetailWarm + c.Measure + c.FastForward)
}

// RunSMARTS executes cfg with periodic sampling instead of contiguous
// measurement: detailed windows are separated by functional fast-forward
// gaps, and only the measured portions contribute to IPC. cfg.Measure is
// ignored; the SMARTS plan determines the run length. The returned
// Result's WindowIPC holds one aggregate IPC per sample, suitable for
// matched-pair comparison against a baseline run with the same plan.
func RunSMARTS(cfg Config, plan SMARTSConfig) Result {
	if err := plan.Validate(); err != nil {
		panic(err)
	}
	cfg.Timing = true
	// The SMARTS plan, not cfg.Measure, sets the run length, so the system
	// is built with Measure covering the plan: a compiled stream then holds
	// every access the plan steps.
	build := cfg
	build.Measure = plan.TotalAccesses()
	sys := NewSystem(build)

	sys.SetDetail(false)
	sys.StepAllN(cfg.Warmup)
	sys.ResetStats()

	n := sys.Hier.Config().Cores
	var windowIPC []float64
	var totalInstr, maxCycles float64
	for s := 0; s < plan.Samples; s++ {
		sys.SetDetail(true)
		sys.StepAllN(plan.DetailWarm)
		snapshotsInto(sys, sys.snapPrev)
		sys.StepAllN(plan.Measure)
		snapshotsInto(sys, sys.snapCur)

		var instr, cyc float64
		for c := 0; c < n; c++ {
			instr += sys.snapCur[c].Instrs - sys.snapPrev[c].Instrs
			w := sys.snapCur[c].Cycles - sys.snapPrev[c].Cycles
			if w > cyc {
				cyc = w
			}
		}
		if cyc > 0 {
			windowIPC = append(windowIPC, instr/cyc)
			totalInstr += instr
			maxCycles += cyc
		}

		sys.SetDetail(false)
		sys.StepAllN(plan.FastForward)
	}

	res := Result{Config: cfg, WindowIPC: windowIPC}
	res.Instrs = totalInstr
	res.Cycles = maxCycles
	if maxCycles > 0 {
		res.IPC = totalInstr / maxCycles
	}
	sys.foldPVResidual() // attribute trailing cross-core proxy work
	collectStats(sys, &res)
	return res
}
