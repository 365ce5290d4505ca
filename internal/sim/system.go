package sim

import (
	"fmt"
	"log"

	pvcore "pvsim/internal/core"
	"pvsim/internal/cpu"
	"pvsim/internal/memsys"
	"pvsim/internal/timing"
	"pvsim/internal/trace"
	"pvsim/pv"
)

// System is one fully-wired CMP: generators, hierarchy, one pv.Instance
// per core (nil without a prefetcher) and per-core timing models. The
// system knows nothing about any concrete predictor family — every family
// the pv registry holds, including third-party ones, runs through the
// same wiring.
type System struct {
	cfg  Config
	Hier *memsys.Hierarchy
	// gens holds each core's access stream: a plain *trace.Generator for
	// steady (single-phase) cores, a *trace.Phased for cores whose workload
	// switches at access-count boundaries, a *trace.CompiledReplayer after
	// CompileStreams. Heterogeneous mixes give different cores different
	// parameter sets through Config.Cores.
	gens  []trace.Source
	preds []pv.Instance // nil entries when Prefetch is the baseline
	cores []*cpu.Core
	clock []uint64
	// inflight tracks outstanding prefetch completion times per core for
	// timeliness modeling (timing runs only).
	inflight []map[memsys.Addr]uint64

	// proxyCfg/proxyClamped record the effective PVProxy configuration
	// (after MSHR/evict-buffer clamping) for virtualized runs, so reports
	// can show what was actually built rather than what was asked for.
	proxyCfg     pvcore.ProxyConfig
	proxyClamped bool

	// snapStart/snapPrev/snapCur are the per-core snapshot buffers Run
	// reuses across measurement windows (and across runs on a reused
	// system), so windowed timing collection allocates nothing.
	snapStart, snapPrev, snapCur []cpu.Snapshot

	// tm is the passive cost model (nil unless cfg.Cost.Enabled). It folds
	// each step's outcome — demand/fetch serving levels plus the per-core
	// PVProxy counter movement since the core's previous step — into cycle
	// accumulators, without feeding anything back into the simulation.
	// proxyLive holds each core's live PVProxy statistics pointer (nil for
	// dedicated/baseline cores) and prevProxy the snapshot the next delta
	// is taken against; both are fixed-size, so the fold allocates nothing.
	tm        *timing.Model
	proxyLive []*pvcore.ProxyStats
	prevProxy []pvcore.ProxyStats

	// detail gates timing accounting; RunSMARTS turns it off during
	// functional fast-forward gaps. Plain Run leaves it on throughout.
	detail bool

	// edges holds each core's phase-flush schedule (Config.PhaseFlush on a
	// multi-phase core with a predictor; nil entries elsewhere, and a nil
	// slice when no core flushes). round counts the accesses every core
	// has consumed since construction or Reset: the batched loop steps all
	// cores in lockstep, so one counter places every core's edges.
	edges []*phaseEdges
	round uint64

	// compiled holds the per-core compiled replayers after CompileStreams
	// swapped them in (nil on the live-generator path), and batch the
	// reusable per-core stream buffers of the batched step loop.
	compiled []*trace.CompiledReplayer
	batch    [][]trace.Access
}

// phaseEdges is one phase-flush core's edge schedule: its phase lengths,
// the phase it is in, and the round at which its next phase starts — the
// same positions trace.Phased switches its stream at.
type phaseEdges struct {
	lens  []int
	phase int
	next  uint64
}

// rearm returns the schedule to the start of phase 0.
func (e *phaseEdges) rearm() {
	e.phase = 0
	e.next = uint64(e.lens[0])
}

// prefetchSink routes one core's predictions into the hierarchy and the
// in-flight table.
type prefetchSink struct {
	sys  *System
	core int
}

// Prefetch implements pv.Sink.
func (s prefetchSink) Prefetch(addr memsys.Addr, availableAt uint64) {
	sys := s.sys
	res, issued := sys.Hier.Prefetch(s.core, addr)
	if !issued || !sys.cfg.Timing || !sys.detail {
		// In-flight completion times matter only to detailed timing, and
		// only detailed steps consume (and prune) the table. Inserting
		// while detail is off — SMARTS functional fast-forward gaps — would
		// grow the map without bound: the core clock is frozen there, so
		// even pruning could never retire an entry.
		return
	}
	now := sys.clock[s.core]
	start := availableAt
	if now > start {
		start = now
	}
	block := sys.Hier.L1D(s.core).BlockAddr(addr)
	sys.inflight[s.core][block] = start + res.Latency
}

// NewSystem builds and wires a system; it panics on invalid configuration
// (configs come from code, not user input).
func NewSystem(cfg Config) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	hcfg := cfg.Hier
	hcfg.PVRanges = cfg.Prefetch.PVRanges(hcfg.Cores, hcfg.L2.BlockBytes)
	hcfg.OnChipOnlyPV = cfg.Prefetch.OnChipOnly
	// Bank arbitration needs a advancing clock; timing runs provide one.
	hcfg.ModelBankContention = cfg.Timing && hcfg.L2Banks > 0

	n := hcfg.Cores
	sys := &System{
		cfg:       cfg,
		detail:    true,
		Hier:      memsys.New(hcfg),
		gens:      make([]trace.Source, n),
		preds:     make([]pv.Instance, n),
		cores:     make([]*cpu.Core, n),
		clock:     make([]uint64, n),
		inflight:  make([]map[memsys.Addr]uint64, n),
		snapStart: make([]cpu.Snapshot, n),
		snapPrev:  make([]cpu.Snapshot, n),
		snapCur:   make([]cpu.Snapshot, n),
		batch:     make([][]trace.Access, n),
	}
	for c := range sys.batch {
		sys.batch[c] = make([]trace.Access, batchLen)
	}
	if cfg.Cost.Enabled {
		params := cfg.Cost.Params
		if !params.Enabled() {
			params = timing.DefaultParams(hcfg)
		}
		sys.tm = timing.NewModel(params, n)
		sys.proxyLive = make([]*pvcore.ProxyStats, n)
		sys.prevProxy = make([]pvcore.ProxyStats, n)
	}

	var builder pv.Builder
	if cfg.Prefetch.Enabled() {
		builder, _ = pv.Lookup(cfg.Prefetch.Name) // Validate vouched for it
		if cfg.Prefetch.Mode == pv.Virtualized {
			var clamped bool
			sys.proxyCfg, clamped = pv.ProxyConfigFor(cfg.Prefetch, cfg.Prefetch.Name)
			if clamped {
				sys.proxyClamped = true
				log.Printf("sim: %s PVProxy clamped to %d MSHRs / %d evict-buffer entries to fit a %d-entry PVCache",
					cfg.Prefetch.Label(), sys.proxyCfg.MSHRs, sys.proxyCfg.EvictBufEntries, sys.proxyCfg.CacheEntries)
			}
		}
	}

	shared := map[string]any{}
	for c := 0; c < n; c++ {
		phases := cfg.phasesFor(c)
		if len(phases) == 1 {
			sys.gens[c] = trace.NewGenerator(phases[0].Params, cfg.Seed, c)
		} else {
			sys.gens[c] = trace.NewPhased(phases, cfg.Seed, c)
		}
		sys.inflight[c] = make(map[memsys.Addr]uint64)
		// The CPI accounting ratios are per-core constants taken from the
		// core's first phase: phase switches change the access stream, not
		// the timing model's instruction mix.
		sys.cores[c] = cpu.New(cpu.Config{
			MemRatio:    phases[0].Params.MemRatio,
			MLP:         phases[0].Params.MLP,
			L1Latency:   hcfg.L1Latency,
			FrontEndMLP: 2,
		})
		if builder == nil {
			continue
		}
		env := pv.Env{
			Core:         c,
			Cores:        n,
			Seed:         cfg.Seed,
			Timing:       cfg.Timing,
			L1BlockBytes: hcfg.L1D.BlockBytes,
			L2BlockBytes: hcfg.L2.BlockBytes,
			Start:        pv.TableStart(c),
			Backend:      pvcore.HierarchyBackend{H: sys.Hier},
			Sink:         prefetchSink{sys: sys, core: c},
			Shared:       shared,
		}
		if cfg.Prefetch.SharedTable {
			env.Start = pv.TableStart(0)
		}
		if cfg.Prefetch.Mode == pv.Virtualized {
			env.Proxy, _ = pv.ProxyConfigFor(cfg.Prefetch, fmt.Sprintf("%s.%d", cfg.Prefetch.Name, c))
		}
		inst, err := builder.New(cfg.Prefetch, env)
		if err != nil {
			panic(err)
		}
		sys.preds[c] = inst
		if v, ok := inst.(pv.Virtualizable); ok && sys.tm != nil {
			sys.proxyLive[c] = v.ProxyStats() // nil when dedicated
		}
		c := c
		sys.Hier.SetL1DEvictHook(c, func(addr memsys.Addr, _ memsys.EvictCause) {
			inst.OnEvict(sys.clock[c], addr)
		})
		if len(phases) > 1 && cfg.PhaseFlush {
			if sys.edges == nil {
				sys.edges = make([]*phaseEdges, n)
			}
			e := &phaseEdges{lens: make([]int, len(phases))}
			for i, ph := range phases {
				e.lens[i] = ph.Accesses
			}
			e.rearm()
			sys.edges[c] = e
		}
	}

	if cfg.Prefetch.OnChipOnly && cfg.Prefetch.Mode == pv.Virtualized && cfg.Prefetch.Enabled() {
		sys.Hier.SetPVDropHook(func(addr memsys.Addr) {
			for _, p := range sys.preds {
				if v, ok := p.(pv.Virtualizable); ok && v.Drop(addr) {
					return
				}
			}
		})
	}
	if cfg.Compile {
		sys.CompileStreams(cfg.Warmup + cfg.Measure)
	}
	return sys
}

// Compiled reports whether the cores run compiled traces.
func (s *System) Compiled() bool { return s.compiled != nil }

// CompileStreams materializes every core's access stream into a compiled
// binary trace of n accesses (trace.Compile) and swaps zero-alloc batch
// replayers in as the cores' sources. Replay is bit-identical to the live
// generators. Call it on a pristine system — freshly built or Reset — and
// only when n covers every access the caller will step (Run consumes
// Warmup + Measure per core); a compiled stream is finite and stepping
// past its end panics. Compiling twice is a no-op.
func (s *System) CompileStreams(n int) {
	if s.compiled != nil {
		return
	}
	reps := make([]*trace.CompiledReplayer, len(s.gens))
	for c := range s.gens {
		ct, err := trace.Compile(s.gens[c], n, 0,
			fmt.Sprintf("workload=%s seed=%d core=%d", s.cfg.Workload.Name, s.cfg.Seed, c))
		if err != nil {
			panic(err) // only a negative n, which Config.Validate excludes
		}
		reps[c] = ct.Replayer()
		s.gens[c] = reps[c]
	}
	s.compiled = reps
}

// CheckStreams verifies up front that every core's compiled stream holds
// enough accesses for the configured run (Warmup + Measure per core),
// returning a descriptive error instead of letting StepAllN panic mid-run
// when a stream compiled too short runs dry. Live-generator systems are
// unbounded and always pass. RunChecked calls it before stepping; Run
// panics on its error.
func (s *System) CheckStreams() error {
	if s.compiled == nil {
		return nil
	}
	need := uint64(s.cfg.Warmup + s.cfg.Measure)
	for c, rep := range s.compiled {
		if rem := rep.Remaining(); rem < need {
			return fmt.Errorf("sim: compiled stream for core %d holds %d accesses but the run needs %d (warmup %d + measure %d); recompile with CompileStreams(n) for n >= %d",
				c, rem, need, s.cfg.Warmup, s.cfg.Measure, need)
		}
	}
	return nil
}

// Predictor returns core c's predictor instance (nil without one). Callers
// that need family internals type-assert to the family's adapter, e.g.
// *sms.Instance.
func (s *System) Predictor(c int) pv.Instance { return s.preds[c] }

// EffectiveProxyConfig returns the PVProxy configuration actually built
// (after clamping) and whether clamping changed the default shape; the
// zero config for non-virtualized runs.
func (s *System) EffectiveProxyConfig() (pvcore.ProxyConfig, bool) {
	return s.proxyCfg, s.proxyClamped
}

// Core returns core c's timing model.
func (s *System) Core(c int) *cpu.Core { return s.cores[c] }

// Clock returns core c's current cycle.
func (s *System) Clock(c int) uint64 { return s.clock[c] }

// SetDetail toggles detailed timing accounting (RunSMARTS uses it to
// fast-forward functionally between samples). The cost fold is not
// affected: it observes every step regardless of detail mode.
func (s *System) SetDetail(on bool) { s.detail = on }

// CostModel exposes the passive cost model (nil when cfg.Cost is
// disabled); tests and live dashboards read it mid-run.
func (s *System) CostModel() *timing.Model { return s.tm }

// foldPVResidual folds proxy movement not yet attributed to any step:
// work triggered on core c's proxy after c's own last step of the run
// (e.g. an invalidation from a later core in the final round). Run calls
// it before collecting stats so the fold's totals conserve exactly against
// the final ProxyStats counters (internal/simtest pins this).
func (s *System) foldPVResidual() {
	if s.tm == nil {
		return
	}
	for c := range s.prevProxy {
		s.foldPVResidualCore(c)
	}
}

// foldPVResidualCore folds one core's proxy movement since its snapshot;
// flushPhase calls it before Instance.Reset destroys the counters.
func (s *System) foldPVResidualCore(c int) {
	if s.tm == nil {
		return
	}
	if live := s.proxyLive[c]; live != nil {
		cur := *live
		s.tm.OnPV(c, timing.PVDelta(s.prevProxy[c], cur))
		s.prevProxy[c] = cur
	}
}

// rebaseProxySnapshot re-bases one core's delta snapshot on the live
// counters (zero right after an Instance.Reset).
func (s *System) rebaseProxySnapshot(c int) {
	if s.tm == nil {
		return
	}
	if live := s.proxyLive[c]; live != nil {
		s.prevProxy[c] = *live
	} else {
		s.prevProxy[c] = pvcore.ProxyStats{}
	}
}

// resyncProxySnapshots re-bases every core's PVProxy delta snapshot on the
// live counters, so the next fold step observes only its own movement.
func (s *System) resyncProxySnapshots() {
	if s.tm == nil {
		return
	}
	for c := range s.prevProxy {
		s.rebaseProxySnapshot(c)
	}
}

// stepAccess advances core c by one memory instruction: instruction fetch,
// demand access, timing accounting and predictor training.
func (s *System) stepAccess(c int, acc trace.Access) {
	now := s.clock[c]
	s.Hier.Tick(now)

	fres := s.Hier.Fetch(c, acc.PC)
	res := s.Hier.Data(c, acc.Addr, acc.Write)

	if s.cfg.Timing && s.detail {
		var extra uint64
		block := s.Hier.L1D(c).BlockAddr(acc.Addr)
		if ready, ok := s.inflight[c][block]; ok {
			if ready > now {
				extra = ready - now // prefetch was late: pay the residual
			}
			delete(s.inflight[c], block)
		}
		core := s.cores[c]
		core.OnFetch(fres.Latency)
		core.OnAccess(res.Latency, extra)
		s.clock[c] = uint64(core.Cycles())
		if len(s.inflight[c]) > 1<<15 {
			s.pruneInflight(c)
		}
	}

	if p := s.preds[c]; p != nil {
		p.OnAccess(s.clock[c], acc.PC, acc.Addr)
	}

	if s.tm != nil {
		// The passive cost fold: demand/fetch outcomes by serving level,
		// plus this core's PVProxy counter movement since its previous
		// step (which also captures proxy work triggered from other cores'
		// steps via eviction/invalidation hooks — it is this core's proxy).
		// Unlike the IPC model it is not gated on s.detail: every step
		// computes its outcome either way, and folding them all keeps the
		// fold exactly conserving against the proxy counters even under
		// SMARTS fast-forward (internal/simtest pins the equality).
		s.tm.OnAccess(c, fres.Level, res.Level)
		if live := s.proxyLive[c]; live != nil {
			cur := *live
			s.tm.OnPV(c, timing.PVDelta(s.prevProxy[c], cur))
			s.prevProxy[c] = cur
		}
	}
}

// pruneInflight drops completed prefetch records to bound memory.
func (s *System) pruneInflight(c int) {
	now := s.clock[c]
	for b, ready := range s.inflight[c] {
		if ready <= now {
			delete(s.inflight[c], b)
		}
	}
}

// batchLen is the step loop's per-core buffer size. Every system holds its
// buffers (cores x batchLen x 24 B), so the size trades memory per pooled
// system against per-batch overhead: one ReadBatch call per core. A
// compiled replayer keeps its decode position across calls, so a batch
// need not align with the trace's chunks.
const batchLen = 1024

// StepAllN advances every core by n accesses, round-robin: cores
// interleave at access granularity, approximating concurrent execution on
// the shared L2. It reads per-core batches of at most batchLen accesses
// from the streams — live or compiled alike — and interleaves consumption
// from the buffers, so per-access stream dispatch is amortized into one
// ReadBatch call per core per batch, and no stream is read past the n
// accesses asked for. Results do not depend on how a run is split into
// StepAllN calls.
func (s *System) StepAllN(n int) {
	for n > 0 {
		k := min(n, batchLen)
		s.fill(k)
		s.stepBatch(k)
		n -= k
	}
}

// fill reads the next k accesses of every core's stream into its batch
// buffer and panics when a compiled stream runs dry.
func (s *System) fill(k int) {
	for c, g := range s.gens {
		if got := g.ReadBatch(s.batch[c][:k]); got < k {
			panic(dryStreamError(c, k, got))
		}
	}
}

// dryStreamError formats the compiled-stream underrun panic of fill.
// CheckStreams catches the misuse descriptively before any stepping; this
// panic is the backstop for callers stepping past the length they
// compiled.
func dryStreamError(core, want, got int) string {
	return fmt.Sprintf("sim: compiled stream for core %d ran dry %d accesses short", core, want-got)
}

// stepBatch steps rounds [0, k) of the filled batch buffers in round-robin
// order, firing each phase-flush edge immediately before its core's first
// access of the new phase. Rounds without an edge run the plain loop;
// phases shorter than a batch just split it into more segments.
func (s *System) stepBatch(k int) {
	cores := len(s.batch)
	base := s.round
	for i := 0; i < k; {
		end := k
		for _, e := range s.edges {
			if e != nil && e.next < base+uint64(end) {
				end = int(e.next - base)
			}
		}
		for ; i < end; i++ {
			for c := 0; c < cores; c++ {
				s.stepAccess(c, s.batch[c][i])
			}
		}
		if i == k {
			break
		}
		// Round i holds at least one core's phase edge.
		for c := 0; c < cores; c++ {
			if e := s.edges[c]; e != nil && e.next == base+uint64(i) {
				s.flushPhase(c)
			}
			s.stepAccess(c, s.batch[c][i])
		}
		i++
	}
	s.round = base + uint64(k)
}

// flushPhase is the context-switch model at core c's phase edge: the OS
// flushes the core's predictor state — engine, tables, and (virtualized)
// the backing PVTable. pv/pvtest pins that a Reset instance is
// bit-identical to a fresh one, so the flush is exactly a cold start. The
// cost fold attributes the core's un-folded proxy movement first (Reset
// destroys the counters) and rebases its snapshot after, so flush-run cost
// accounting stays exact.
func (s *System) flushPhase(c int) {
	s.foldPVResidualCore(c)
	s.preds[c].Reset()
	s.rebaseProxySnapshot(c)
	e := s.edges[c]
	e.phase = (e.phase + 1) % len(e.lens)
	e.next += uint64(e.lens[e.phase])
}

// ResetStats zeroes every statistic (hierarchy, predictors, proxies) in
// place while leaving microarchitectural state warm; Run calls it after
// warmup, and it allocates nothing.
func (s *System) ResetStats() {
	s.Hier.ResetStats()
	for _, p := range s.preds {
		if p != nil {
			p.ResetStats()
		}
	}
	if s.tm != nil {
		s.tm.Reset()
		s.resyncProxySnapshots() // proxy counters just went to zero
	}
}

// Reset returns the whole system to its post-construction state in place —
// generators rewound, caches and predictor state emptied, clocks and
// statistics zeroed — so the same System can run its configuration again
// (or the same configuration can be re-run for benchmarking) without
// rebuilding anything. A Reset system produces bit-identical results to a
// freshly built one.
func (s *System) Reset() {
	s.Hier.Reset()
	for c := 0; c < s.Hier.Config().Cores; c++ {
		s.gens[c].Reset()
		s.cores[c].Reset()
		s.clock[c] = 0
		clear(s.inflight[c])
		if s.preds[c] != nil {
			// Instance.Reset also resets the backing PVTable; under §2.1
			// sharing every core resets the same table, which is idempotent.
			s.preds[c].Reset()
		}
		if e := s.edges; e != nil && e[c] != nil {
			e[c].rearm()
		}
	}
	s.round = 0
	if s.tm != nil {
		s.tm.Reset()
		s.resyncProxySnapshots()
	}
	s.detail = true
}
