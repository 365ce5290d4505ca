package sim

import (
	"fmt"
	"sync"

	pvcore "pvsim/internal/core"
	"pvsim/internal/memsys"
	"pvsim/internal/trace"
	"pvsim/pv"
)

// This file is the deterministic two-phase parallel stepper behind
// Config.CoreParallel. Each batch of up to batchLen rounds runs as:
//
//  1. parallel stream production — every core reads its next k accesses,
//     compiled or live, into its own batch buffer;
//  2. a serial scan of the decoded buffers building the batch's
//     remote-invalidation schedule (every store, in round-robin order);
//  3. a parallel local phase — every core performs its own accesses
//     against its private L1s and predictor, applying the schedule's
//     invalidations to itself at their exact serial positions, and logs
//     every shared-state operation into its memsys.Effects under the
//     EffectKey of the access that caused it;
//  4. a serial commit — the coordinator replays the logs key by key in
//     exact round-robin access order and folds the cost model.
//
// Determinism argument: the only state shared between cores is the L2
// (with its bank and statistics counters), the PVProxy backend
// traffic, and the cost fold. All of it is deferred in phase 3 and
// replayed in phase 4 in exactly the order the serial stepper executes it;
// per-core state (L1I/L1D, predictor, proxy bookkeeping, per-core stats)
// is touched only by its owning core, and cross-core L1D invalidations —
// the one place serial execution reaches into another core — are
// self-applied by each victim at the precise point of the round-robin
// order where the serial sweep would have invalidated it. Every byte of
// output is therefore identical to serial stepping; the per-core Effects
// key sequences are checked monotone at commit, and a leftover op after a
// full batch commit panics rather than publish silently diverged state.

// writeEvent is one store in the batch's remote-invalidation schedule.
type writeEvent struct {
	round int32
	core  int8
	block memsys.Addr
}

// routedBackend is the PVProxy's view of the hierarchy: a passthrough to
// PVRead/PVWriteback in serial operation, a deferred append into the
// owning core's Effects during a parallel local phase. stats points at the
// core's live ProxyStats so a committed read can land its FilledByL2/
// FilledByMem increment exactly where the proxy's own switch would have
// (the proxy sees LevelPending from a deferred read and counts nothing).
type routedBackend struct {
	h     *memsys.Hierarchy
	fx    *memsys.Effects
	stats *pvcore.ProxyStats
}

// Read implements pvcore.Backend.
func (b *routedBackend) Read(a memsys.Addr) memsys.Result {
	if b.fx == nil {
		return b.h.PVRead(a)
	}
	var fl2, fmem *uint64
	if b.stats != nil {
		fl2, fmem = &b.stats.FilledByL2, &b.stats.FilledByMem
	}
	b.fx.AppendPVRead(a, fl2, fmem)
	return memsys.Result{Level: memsys.LevelPending, Latency: 1}
}

// Write implements pvcore.Backend.
func (b *routedBackend) Write(a memsys.Addr) memsys.Result {
	if b.fx == nil {
		return b.h.PVWriteback(a)
	}
	b.fx.AppendPVWriteback(a)
	return memsys.Result{Level: memsys.LevelPending, Latency: 1}
}

// parallelEligible reports whether this wiring can run the two-phase
// stepper with byte-identical output. Ineligible wirings fall back to
// serial silently:
//   - single-core systems have nothing to parallelize, and >8 cores would
//     overflow the 3-bit actor field of EffectKey;
//   - Timing feeds access latencies back into per-core clocks, and those
//     latencies depend on shared-L2 outcomes unavailable until commit;
//   - a shared predictor table means predictor-local updates are not
//     core-local;
//   - on-chip-only PV drops reach back into predictor state from L2
//     evictions, which commit after later local-phase lookups already ran;
//   - an inclusive L2 back-invalidates other cores' L1s from commit-time
//     fills, breaking local-phase L1 privacy;
//   - phase-flush edges reset a core's predictor (and fold its proxy
//     counters) at exact (round, core) positions, which the local phase
//     and the per-batch commit fold do not reproduce.
func (s *System) parallelEligible() bool {
	cfg := s.cfg
	cores := s.Hier.Config().Cores
	return cores > 1 && cores <= 8 &&
		!cfg.Timing &&
		!cfg.Prefetch.SharedTable &&
		!(cfg.Prefetch.OnChipOnly && cfg.Prefetch.Mode == pv.Virtualized && cfg.Prefetch.Enabled()) &&
		!s.Hier.Config().InclusiveL2 &&
		s.edges == nil
}

// SetCoreParallel switches the system's CoreParallel execution strategy on
// or off in place (the pooled-system path of experiments/sweep uses it on
// reused systems) and reports whether the parallel stepper is actually
// engaged — false when the wiring is ineligible and stepping stays serial.
func (s *System) SetCoreParallel(on bool) bool {
	s.cfg.CoreParallel = on
	s.coreParallel = on && s.parallelEligible()
	if s.coreParallel && s.fx == nil {
		s.fx = make([]*memsys.Effects, len(s.gens))
		for c := range s.fx {
			s.fx[c] = &memsys.Effects{}
		}
	}
	return s.coreParallel
}

// CoreParallelActive reports whether StepAllN runs the two-phase parallel
// stepper (tests assert both engagement and fallback).
func (s *System) CoreParallelActive() bool { return s.coreParallel }

// installEffects routes every core's shared-state operations into its
// Effects log; clearEffects restores direct execution. The local-phase
// goroutines are spawned after installEffects and joined before
// clearEffects, so the fx fields are never written concurrently with use.
func (s *System) installEffects() {
	for c, fx := range s.fx {
		fx.Reset()
		s.Hier.SetEffects(c, fx)
		if b := s.backends[c]; b != nil {
			b.fx = fx
		}
	}
}

func (s *System) clearEffects() {
	for c := range s.fx {
		s.Hier.SetEffects(c, nil)
		if b := s.backends[c]; b != nil {
			b.fx = nil
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

// PipelineSched is the model checker's hook into the parallel stepper:
// when installed, the local phase runs sequentially with the scheduler
// picking which core's next round executes at every step — exploring the
// interleavings the goroutine scheduler would produce, deterministically.
// internal/mc implements it with its chooser.
type PipelineSched interface {
	Choose(n int, label func(i int) string) int
}

// PipelineFaultMisorderedCommit makes commitBatch drain each access's
// data-phase effects before its fetch-phase effects — a deliberate commit
// misordering. The keyed logs refuse to drain out of order, so the batch
// ends with pending effects and the commit panics: internal/mc injects
// this fault to prove the detection actually fires.
const PipelineFaultMisorderedCommit = "misorder-commit"

// SetPipelineSched installs (or, with nil, removes) a model-checking
// scheduler and fault on the parallel stepper. Exploration surface only:
// production runs never set it.
func (s *System) SetPipelineSched(sched PipelineSched, fault string) {
	s.pipeSched, s.pipeFault = sched, fault
}

// localPhaseExplored is the local phase under a PipelineSched: every core
// advances round by round, sequentially, in the interleaving the
// scheduler picks. Equivalence of all interleavings with the goroutine
// execution (and with serial stepping) is exactly what the explorer
// checks.
func (s *System) localPhaseExplored(k int) {
	cores := s.Hier.Config().Cores
	next := make([]int, cores)
	si := make([]int, cores)
	enabled := make([]int, 0, cores)
	for done := 0; done < cores*k; done++ {
		enabled = enabled[:0]
		for c := 0; c < cores; c++ {
			if next[c] < k {
				enabled = append(enabled, c)
			}
		}
		pick := s.pipeSched.Choose(len(enabled), func(i int) string {
			return fmt.Sprintf("local(core=%d, round=%d)", enabled[i], next[enabled[i]])
		})
		c := enabled[pick]
		si[c] = s.localRound(c, next[c], si[c])
		next[c]++
	}
	for c := 0; c < cores; c++ {
		s.localTail(c, si[c])
	}
}

// stepAllNParallel is StepAllN on the two-phase parallel stepper.
func (s *System) stepAllNParallel(n int) {
	cores := s.Hier.Config().Cores
	s.installEffects()
	defer s.clearEffects()
	var wg sync.WaitGroup
	for n > 0 {
		k := min(n, batchLen)

		// Phase 1: parallel stream production into the per-core buffers.
		s.fill(k, true)

		// Phase 2: the remote-invalidation schedule, in serial order.
		s.sched = s.sched[:0]
		for i := 0; i < k; i++ {
			for c := 0; c < cores; c++ {
				if s.batch[c][i].Write {
					s.sched = append(s.sched, writeEvent{
						round: int32(i),
						core:  int8(c),
						block: s.Hier.L1D(c).BlockAddr(s.batch[c][i].Addr),
					})
				}
			}
		}

		// Phase 3: parallel local phase (or the explored sequential
		// interleaving when the model checker drives the run).
		if s.pipeSched != nil {
			s.localPhaseExplored(k)
		} else {
			wg.Add(cores)
			for c := 0; c < cores; c++ {
				go func(c int) {
					defer wg.Done()
					s.localPhase(c, k)
				}(c)
			}
			wg.Wait()
		}

		// Phase 4: ordered commit.
		s.commitBatch(k)
		s.round += uint64(k)
		n -= k
	}
}

// localPhase runs core v's k accesses against its private state, weaving
// the schedule's invalidations of v into their exact serial positions: a
// store by core w at round r invalidates v inside access (r, w), which
// precedes v's access (r', v) iff r < r' or (r == r' and w < v). Events by
// v itself are skipped — a store never invalidates its own cache.
func (s *System) localPhase(v, k int) {
	si := 0
	for i := 0; i < k; i++ {
		si = s.localRound(v, i, si)
	}
	s.localTail(v, si)
}

// localRound runs core v's round i of the local phase: weave the schedule
// invalidations due before access (i, v), then perform the access. si is
// v's cursor into the schedule; the advanced cursor is returned so rounds
// are resumable — the mc pipeline explorer interleaves rounds of
// different cores one at a time through this surface.
func (s *System) localRound(v, i, si int) int {
	fx := s.fx[v]
	sched := s.sched
	for si < len(sched) {
		e := sched[si]
		r, w := int(e.round), int(e.core)
		if r > i || (r == i && w > v) {
			break
		}
		si++
		if w == v {
			continue
		}
		fx.SetKey(memsys.EffectKey(r, w, 1))
		s.Hier.ApplyRemoteInvalidate(v, e.block)
	}
	s.stepLocal(v, i, s.batch[v][i])
	return si
}

// localTail applies the schedule events past core v's last access of the
// batch: round-(k-1) stores by cores above v.
func (s *System) localTail(v, si int) {
	fx := s.fx[v]
	sched := s.sched
	for ; si < len(sched); si++ {
		e := sched[si]
		if int(e.core) == v {
			continue
		}
		fx.SetKey(memsys.EffectKey(int(e.round), int(e.core), 1))
		s.Hier.ApplyRemoteInvalidate(v, e.block)
	}
}

// stepLocal is the local-phase body of one access: stepAccess minus the
// timing block (the parallel stepper is functional-only) and minus the
// cost fold (commitBatch folds it with the true serving levels). The
// hierarchy clock Tick is skipped — functional cores never advance their
// clocks, so it is a no-op serially too.
func (s *System) stepLocal(c, round int, acc trace.Access) {
	fx := s.fx[c]
	fx.SetKey(memsys.EffectKey(round, c, 0))
	s.Hier.Fetch(c, acc.PC)
	fx.SetKey(memsys.EffectKey(round, c, 2))
	s.Hier.Data(c, acc.Addr, acc.Write)
	if p := s.preds[c]; p != nil {
		p.OnAccess(s.clock[c], acc.PC, acc.Addr)
	}
}

// commitBatch replays every deferred shared-state operation in exact
// round-robin access order and folds the cost model. Each access commits
// in three key steps matching the serial execution order: its fetch
// effects, then — for stores — its victims' invalidation effects in
// ascending core order (the serial sweep's order), then its data and
// predictor effects. A log with pending operations after the full drain
// means some access's effects were never reached (a misordered commit);
// that panics instead of publishing diverged state — internal/mc
// fault-injects exactly this to prove the detection works.
func (s *System) commitBatch(k int) {
	h := s.Hier
	cores := h.Config().Cores
	for i := 0; i < k; i++ {
		for c := 0; c < cores; c++ {
			kFetch, kData := memsys.EffectKey(i, c, 0), memsys.EffectKey(i, c, 2)
			if s.pipeFault == PipelineFaultMisorderedCommit {
				kFetch, kData = kData, kFetch
			}
			fetch, _ := s.fx[c].Commit(h, kFetch)
			if s.batch[c][i].Write {
				for v := 0; v < cores; v++ {
					if v == c {
						continue
					}
					s.fx[v].Commit(h, memsys.EffectKey(i, c, 1))
				}
			}
			_, data := s.fx[c].Commit(h, kData)
			if s.tm != nil {
				s.tm.OnAccess(c, fetch, data)
			}
		}
	}
	for c := 0; c < cores; c++ {
		if p := s.fx[c].Pending(); p != 0 {
			panic(fmt.Sprintf("sim: parallel commit left %d uncommitted effects on core %d", p, c))
		}
		s.fx[c].Reset()
	}
	if s.tm != nil {
		// The per-batch PV fold: OnPV is linear in the event counts and
		// PVDelta telescopes over monotone counters, so one delta per core
		// per batch sums to exactly the serial per-access deltas.
		for c := 0; c < cores; c++ {
			s.foldPVResidualCore(c)
		}
	}
}
