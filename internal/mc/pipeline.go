package mc

import (
	"fmt"
	"reflect"

	"pvsim/internal/sim"
	"pvsim/internal/simtest"
	"pvsim/internal/timing"
	"pvsim/internal/workloads"
)

// PipelineOptions configure ExplorePipeline, the explorer of the sim
// package's two-phase parallel stepper (Config.CoreParallel).
type PipelineOptions struct {
	// Cores is the simulated core count; 0 means 2. The interleaving tree
	// grows multinomially in cores and rounds — keep both tiny.
	Cores int
	// Warmup/Measure are the per-core access counts of the two stepping
	// windows; 0 means 3 and 5. Each window is one batch, so the tree has
	// choose-interleavings(Cores x Warmup) x choose-interleavings(Cores x
	// Measure) complete paths.
	Warmup  int
	Measure int
	// Budget caps explored interleavings; 0 means DefaultBudget.
	Budget int
	// Workload and Seed pick the access streams; zero values mean
	// "Apache", 42.
	Workload string
	Seed     uint64
	// Fault injects a deliberate defect so tests can prove the explorer
	// catches one: sim.PipelineFaultMisorderedCommit drains each access's
	// data-phase effects before its fetch-phase effects, which the keyed
	// logs must refuse (pending effects at batch end panic). Production
	// and CI runs leave it empty.
	Fault string
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...interface{})
}

func (o PipelineOptions) withDefaults() PipelineOptions {
	if o.Cores == 0 {
		o.Cores = 2
	}
	if o.Warmup == 0 {
		o.Warmup = 3
	}
	if o.Measure == 0 {
		o.Measure = 5
	}
	if o.Budget == 0 {
		o.Budget = DefaultBudget
	}
	if o.Workload == "" {
		o.Workload = "Apache"
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// config builds the explored wiring: a virtualized prefetcher (the
// richest commit traffic: L2 demand, L1 writebacks, PV reads and
// writebacks) over toy caches, with the cost model folding — its
// conservation laws are part of every path's check.
func (o PipelineOptions) config() (sim.Config, error) {
	w, err := workloads.ByName(o.Workload)
	if err != nil {
		return sim.Config{}, fmt.Errorf("mc: %w", err)
	}
	cfg := sim.Default(w)
	cfg.Seed = o.Seed
	cfg.Warmup, cfg.Measure = o.Warmup, o.Measure
	cfg.Hier.Cores = o.Cores
	cfg.Hier.L1I.SizeBytes = 4 << 10
	cfg.Hier.L1D.SizeBytes = 4 << 10
	cfg.Hier.L2.SizeBytes = 64 << 10
	cfg.Prefetch = sim.PV8
	cfg.Cost = timing.Config{Enabled: true}
	return cfg, nil
}

// ExplorePipeline enumerates every interleaving of the parallel stepper's
// local phase — which core performs its next access, round by round, for
// the warmup and measurement batches — and checks, per interleaving: the
// Result is bit-identical to serial round-robin stepping, and the simtest
// conservation invariants (including the cost model's) hold. The ordered
// commit phase is deterministic by construction; its misordered-commit
// detection is proven by the PipelineFaultMisorderedCommit fault.
func ExplorePipeline(opts PipelineOptions) (Report, error) {
	opts = opts.withDefaults()
	cfg, err := opts.config()
	if err != nil {
		return Report{}, err
	}
	want := sim.Run(cfg)
	if opts.Log != nil {
		opts.Log("mc: pipeline: %d cores x %d+%d accesses, budget %d", opts.Cores, opts.Warmup, opts.Measure, opts.Budget)
	}
	runs, truncated, cex := enumerate(opts.Budget, func(c *chooser) error {
		return runPipeline(opts, cfg, &want, c)
	})
	if opts.Log != nil {
		opts.Log("mc: pipeline: explored %d (truncated=%v)", runs, truncated)
	}
	return Report{Explored: runs, Truncated: truncated, Cex: cex}, nil
}

// ReplayPipeline re-runs the single interleaving identified by seed and
// returns its rendered trace and the failing check, nil if it passes.
func ReplayPipeline(opts PipelineOptions, seed string) ([]string, error) {
	opts = opts.withDefaults()
	trail, err := ParseSeed(seed)
	if err != nil {
		return nil, err
	}
	cfg, err := opts.config()
	if err != nil {
		return nil, err
	}
	want := sim.Run(cfg)
	return replay(trail, func(c *chooser) error {
		return runPipeline(opts, cfg, &want, c)
	})
}

// runPipeline executes one explored interleaving on a fresh system and
// checks its invariants. The commit phase's pending-effects detection
// fires as a panic; it is recovered into the counterexample's error.
func runPipeline(opts PipelineOptions, cfg sim.Config, want *sim.Result, c *chooser) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pipeline panicked: %v", r)
		}
	}()
	pcfg := cfg
	pcfg.CoreParallel = true
	sys := sim.NewSystem(pcfg)
	if !sys.CoreParallelActive() {
		return fmt.Errorf("wiring did not engage the parallel stepper")
	}
	sys.SetPipelineSched(c, opts.Fault)
	got := sys.Run()
	got.Config.CoreParallel = false
	if !reflect.DeepEqual(*want, got) {
		return fmt.Errorf("interleaving diverged from serial stepping")
	}
	if ierr := simtest.Check(&got); ierr != nil {
		return fmt.Errorf("invariant violated: %w", ierr)
	}
	return nil
}
