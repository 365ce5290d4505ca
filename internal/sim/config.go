package sim

import (
	"fmt"

	"pvsim/internal/memsys"
	"pvsim/internal/timing"
	"pvsim/internal/trace"
	"pvsim/internal/workloads"
	"pvsim/pv"
)

// PrefetcherConfig is the predictor selection of one run. It is exactly a
// pv.Spec: a registry name plus build parameters, rather than the closed
// enum earlier versions used — the simulator builds whatever family the
// spec names, through the pv registry, without importing its package.
type PrefetcherConfig = pv.Spec

// Common configurations used throughout the evaluation, kept as thin
// pv.Spec values so experiment labels and output stay exactly as the
// paper's figures name them.
var (
	// Baseline has no data prefetcher (next-line instruction prefetching
	// only).
	Baseline = pv.Spec{}
	// SMSInfinite upper-bounds coverage.
	SMSInfinite = pv.Spec{Name: "sms", Mode: pv.Infinite}
	// SMS1K16 is the original SMS study's best table (86KB).
	SMS1K16 = pv.Spec{Name: "sms", Mode: pv.Dedicated, Sets: 1024, Ways: 16}
	// SMS1K11 is the virtualization-friendly geometry (59.125KB).
	SMS1K11 = pv.Spec{Name: "sms", Mode: pv.Dedicated, Sets: 1024, Ways: 11}
	// SMS16 and SMS8 are the small dedicated tables of Figures 4/9.
	SMS16 = pv.Spec{Name: "sms", Mode: pv.Dedicated, Sets: 16, Ways: 11}
	SMS8  = pv.Spec{Name: "sms", Mode: pv.Dedicated, Sets: 8, Ways: 11}
	// PV8 and PV16 are the virtualized 1K-11 PHT with 8- and 16-entry
	// PVCaches.
	PV8  = pv.Spec{Name: "sms", Mode: pv.Virtualized, Sets: 1024, Ways: 11, PVCacheEntries: 8}
	PV16 = pv.Spec{Name: "sms", Mode: pv.Virtualized, Sets: 1024, Ways: 11, PVCacheEntries: 16}
	// StrideLarge is a generously sized dedicated stride prefetcher;
	// StridePV8 is the same table virtualized behind an 8-entry PVCache.
	StrideLarge = pv.Spec{Name: "stride", Mode: pv.Dedicated, Sets: 1024, Ways: 4}
	StridePV8   = pv.Spec{Name: "stride", Mode: pv.Virtualized, Sets: 1024, Ways: 4, PVCacheEntries: 8}
)

func init() {
	// Publish the evaluation's standard setups in the pv registry so tools
	// (cmd/pvsim -list) can enumerate and resolve them by name.
	for name, s := range map[string]pv.Spec{
		"none":        Baseline,
		"Infinite":    SMSInfinite,
		"1K-16a":      SMS1K16,
		"1K-11a":      SMS1K11,
		"16-11a":      SMS16,
		"8-11a":       SMS8,
		"PV-8":        PV8,
		"PV-16":       PV16,
		"stride-1K":   StrideLarge,
		"stride-PV-8": StridePV8,
	} {
		pv.RegisterSpec(name, s)
	}
}

// DedicatedSized returns an 11-way dedicated SMS config with the given
// sets (the Figure 5 sweep).
func DedicatedSized(sets int) pv.Spec {
	return pv.Spec{Name: "sms", Mode: pv.Dedicated, Sets: sets, Ways: 11}
}

// SMSVirtualizedSized returns the 1K-11a PHT virtualized behind a PVCache
// of the given entry count (the §4.3 sweep).
func SMSVirtualizedSized(entries int) pv.Spec {
	return pv.Spec{Name: "sms", Mode: pv.Virtualized, Sets: 1024, Ways: 11, PVCacheEntries: entries}
}

// Config is one simulation run.
type Config struct {
	Workload workloads.Workload
	Hier     memsys.Config
	Prefetch pv.Spec

	// Cores optionally assigns each core its own (possibly phased) trace
	// parameters — a heterogeneous multi-programmed mix. When empty,
	// Workload.Params is cloned across all cores (the homogeneous runs of
	// the paper's figures); when set, it must have exactly Hier.Cores
	// entries and Workload is used for labeling only. A homogeneous Cores
	// assignment produces bit-identical results to the equivalent Workload
	// run: each core's generator is seeded by (params, Seed, core) either
	// way.
	Cores []workloads.CoreTrace

	// PhaseFlush resets each core's predictor state (engine, tables, and
	// for virtualized predictors the backing PVTable) at its phase
	// boundaries, modeling an OS that flushes predictor state on context
	// switch. Meaningful only for multi-phase core traces.
	PhaseFlush bool

	// Seed makes runs reproducible; runs with equal Workload+Seed see
	// identical access streams regardless of prefetcher configuration.
	Seed uint64

	// Warmup and Measure are per-core access counts; statistics reset
	// after warmup (the paper warms one billion cycles, measures the next
	// billion).
	Warmup  int
	Measure int

	// Timing enables the IPC model; Windows splits the measure phase into
	// sampling windows for confidence intervals.
	Timing  bool
	Windows int

	// Compile pre-materializes each core's access stream into a compiled
	// binary trace (trace.Compile, PVA2) at build time, Warmup + Measure
	// accesses long, and replays it through the batched step loop: stream
	// production collapses to a chunk decode per core per batch instead of
	// generator calls. Replay is bit-identical to the live generators —
	// Signature deliberately excludes this switch, so compiled and
	// uncompiled runs share cache keys. Every wiring compiles, PhaseFlush
	// included; RunSMARTS compiles a stream covering its whole plan.
	Compile bool

	// CoreParallel is kept only so the JSON shape of Result, which spells
	// out every Config field, stays pinned by the benchmark digests. The
	// parallel stepper it once selected was removed; Validate rejects true
	// and nothing else reads the field.
	CoreParallel bool

	// Cost enables the passive cycle-approximate cost model
	// (internal/timing): a pure fold over the access/outcome stream that
	// accumulates per-core cycle counts — including PVCache hit/miss and
	// MSHR-stall penalties for virtualized predictors — without perturbing
	// the simulation. The zero value disables it and is bit-identical to
	// the pre-cost-model simulator; enabling it changes no access, no
	// predictor decision and no coverage number (pinned by
	// TestTimingDisabledBitIdentical). Independent of Timing: a functional
	// run can account costs, and a Timing run can skip them.
	Cost timing.Config
}

// DefaultScale is the per-core measured access count experiments default
// to; warmup is half of it.
const DefaultScale = 400_000

// Default builds a functional run of workload w on the Table 1 system.
func Default(w workloads.Workload) Config {
	return Config{
		Workload: w,
		Hier:     memsys.DefaultConfig(),
		Prefetch: Baseline,
		Seed:     42,
		Warmup:   DefaultScale / 2,
		Measure:  DefaultScale,
		Windows:  1,
	}
}

// Validate checks the run configuration, including the predictor spec
// against the pv registry (an unknown predictor name errors with the
// registered alternatives).
func (c Config) Validate() error {
	if err := c.Hier.Validate(); err != nil {
		return err
	}
	if len(c.Cores) > 0 {
		if len(c.Cores) != c.Hier.Cores {
			return fmt.Errorf("sim: %d per-core trace assignments for %d cores", len(c.Cores), c.Hier.Cores)
		}
		for i, ct := range c.Cores {
			if err := trace.ValidatePhases(ct.Phases); err != nil {
				return fmt.Errorf("sim: core %d (%s): %w", i, ct.Label, err)
			}
		}
	} else if err := c.Workload.Params.Validate(); err != nil {
		return err
	}
	if c.CoreParallel {
		return fmt.Errorf("sim: CoreParallel is not supported: the parallel stepper was removed and every run steps serially")
	}
	if c.Warmup < 0 || c.Measure <= 0 {
		return fmt.Errorf("sim: warmup=%d measure=%d", c.Warmup, c.Measure)
	}
	if c.Windows < 0 || (c.Windows > 0 && c.Measure/c.Windows == 0) {
		return fmt.Errorf("sim: %d windows over %d accesses", c.Windows, c.Measure)
	}
	if err := c.Prefetch.Validate(); err != nil {
		return err
	}
	if err := c.Cost.Validate(); err != nil {
		return err
	}
	if c.Cost.Enabled && !c.Cost.Params.Enabled() {
		// Zero Params mean "derive from the hierarchy" at build time;
		// validate the derivation here so an unusual hierarchy (e.g. memory
		// faster than the L2) errors instead of panicking in NewSystem.
		if err := timing.DefaultParams(c.Hier).Validate(); err != nil {
			return fmt.Errorf("sim: deriving cost-model params from the hierarchy: %w", err)
		}
	}
	// pv.TableStart spaces per-core PVTables 1MB apart, which bounds a
	// virtualized table at Sets x block bytes <= 1MB; a larger table would
	// silently overlap the next core's reserved range.
	ranges := c.Prefetch.PVRanges(c.Hier.Cores, c.Hier.L2.BlockBytes)
	for i := 1; i < len(ranges); i++ {
		if ranges[i-1].End > ranges[i].Start {
			return fmt.Errorf("sim: %s PVTable (%dKB/core) exceeds the 1MB PVStart spacing; per-core reserved ranges overlap",
				c.Prefetch.Label(), c.Prefetch.Sets*c.Hier.L2.BlockBytes/1024)
		}
	}
	return nil
}

// phasesFor returns core c's phase list: the per-core scenario when one is
// set, otherwise the homogeneous workload as a single never-ending phase.
func (c Config) phasesFor(core int) []trace.Phase {
	if len(c.Cores) > 0 {
		return c.Cores[core].Phases
	}
	return []trace.Phase{{Params: c.Workload.Params}}
}

// PVStart returns core c's PVStart register value (see pv.TableStart).
func PVStart(c int) memsys.Addr { return pv.TableStart(c) }
