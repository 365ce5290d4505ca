// Package sim wires cores, caches and predictors into the quad-core
// system of Table 1 and runs functional (miss/traffic counting) or timing
// (sampled IPC) simulations over the synthetic workloads.
//
// # Layering
//
// A System owns one instance of every layer and is the only place they are
// wired together:
//
//	trace.Source ──▶ System.StepAllN ──▶ memsys.Hierarchy (L1/L2/memory)
//	                        │                    ▲
//	                        ▼                    │ PVRead / PVWriteback
//	                  pv.Instance (per core)     │
//	                        │                    │
//	                        ▼                    │
//	        family engine ──▶ core.Proxy ──▶ core.Table  (virtualized)
//
// Config selects the predictor through a pv.Spec — a registry name plus
// geometry/mode — rather than a closed enum: the System builds whatever
// family the spec names ("sms", "stride", "btb", or a third-party
// registration) via the pv registry, places its PVTables in reserved
// physical ranges (pv.TableStart), and classifies the resulting traffic.
// Adding a predictor family requires no change in this package.
//
// # Stepping
//
// StepAllN is the one way a System steps. It reads a batch of accesses per
// core from the core's trace.Source — a live Generator or Phased stream,
// or a CompiledReplayer when Config.Compile is set — and consumes the
// batches round-robin, one access per core per round. Phase-flush edges
// (Config.PhaseFlush) fire in that loop, immediately before a core's
// first access of its new phase, so stream production stays free of side
// effects and every wiring batches and compiles. Config.CoreParallel
// swaps in the two-phase parallel stepper (parallel.go) where the wiring
// allows it.
//
// # Running
//
// Run builds a System and executes warmup, a statistics reset, and the
// measured phase (windowed when Timing is on); RunSMARTS instead samples
// detailed windows separated by functional fast-forward gaps (§4.1's
// SMARTS-style methodology). The per-access path allocates nothing, and a
// System can be Reset in place and re-Run with bit-identical results —
// the re-run path benchmarks and sweep drivers use to avoid rebuilding
// multi-megabyte cache arrays per run.
package sim
