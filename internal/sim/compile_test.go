package sim

import (
	"reflect"
	"testing"

	"pvsim/internal/timing"
	"pvsim/internal/trace"
	"pvsim/internal/workloads"
)

// TestCompiledRunBitIdentical is the determinism pin of compiled traces:
// for every prefetcher wiring (including timing, mixes, and phase-flush
// edges), a Config.Compile run must produce exactly the Result of the
// live-generator run — same accesses, same interleaving, same statistics
// to the last counter.
func TestCompiledRunBitIdentical(t *testing.T) {
	cfgs := resetConfigs(t)
	// Add a cost-model wiring: the fold's per-step proxy snapshots must
	// survive batching untouched.
	cost := cfgs["pv8-timing"]
	cost.Cost = timing.Config{Enabled: true}
	cfgs["pv8-timing-cost"] = cost

	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			live := Run(cfg)

			ccfg := cfg
			ccfg.Compile = true
			sys := NewSystem(ccfg)
			if !sys.Compiled() {
				t.Fatal("Config.Compile did not compile the streams")
			}
			got := sys.Run()
			// Result embeds the Config; the runs differ only in the Compile
			// switch, which Signature excludes. Normalize it before the
			// bit-compare so only simulation output is compared.
			got.Config.Compile = false
			if !reflect.DeepEqual(live, got) {
				t.Fatalf("compiled run diverges from live run:\n%+v\nvs\n%+v", live, got)
			}
		})
	}
}

// TestCompiledSignatureUnchanged pins that Compile stays out of the cache
// key: compiled runs are bit-identical, so they must share pooled systems
// and cached results with live runs.
func TestCompiledSignatureUnchanged(t *testing.T) {
	cfg := quickConfig(t, "Apache")
	ccfg := cfg
	ccfg.Compile = true
	if cfg.Signature() != ccfg.Signature() {
		t.Fatalf("Compile changed the signature:\n%s\nvs\n%s", cfg.Signature(), ccfg.Signature())
	}
}

// TestCompiledResetReuse pins the pool-reuse path: a compiled system Reset
// and re-Run must reproduce its first Result exactly (the replayers rewind
// in place; nothing is recompiled).
func TestCompiledResetReuse(t *testing.T) {
	cfg := quickConfig(t, "DB2")
	cfg.Prefetch = PV8
	cfg.Compile = true
	sys := NewSystem(cfg)
	first := sys.Run()
	sys.Reset()
	if !sys.Compiled() {
		t.Fatal("Reset dropped the compiled streams")
	}
	second := sys.Run()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("compiled reset-system run diverges:\n%+v\nvs\n%+v", first, second)
	}
}

// TestCompileStreamsGating pins the explicit CompileStreams surface: every
// system compiles — phase-flush mixes included, since their edges fire
// where accesses are consumed — and a second call is a no-op.
func TestCompileStreamsGating(t *testing.T) {
	cfg := quickConfig(t, "Apache")
	sys := NewSystem(cfg)
	sys.CompileStreams(cfg.Warmup + cfg.Measure)
	if !sys.Compiled() {
		t.Fatal("CompileStreams did not compile a plain system")
	}
	first := sys.compiled[0]
	sys.CompileStreams(cfg.Warmup + cfg.Measure)
	if sys.compiled[0] != first {
		t.Fatal("second CompileStreams recompiled the streams")
	}

	for _, flush := range []bool{true, false} {
		pcfg := phasedFlushConfig(t, "DB2@700+Apache@900")
		pcfg.PhaseFlush = flush
		psys := NewSystem(pcfg)
		psys.CompileStreams(pcfg.Warmup + pcfg.Measure)
		if !psys.Compiled() {
			t.Fatalf("CompileStreams did not compile a phased system (PhaseFlush=%v)", flush)
		}
	}
}

// phasedFlushConfig is a small PV-8 run of the given mix with phase-flush
// edges, the cost model and timing on, so an edge fired at the wrong
// access moves predictor, proxy, cost and clock state alike.
func phasedFlushConfig(t *testing.T, spec string) Config {
	t.Helper()
	m, err := workloads.ParseMix(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig(t, "Apache")
	cfg.Warmup, cfg.Measure = 6_000, 8_000
	cfg.Cores, err = m.ForCores(cfg.Hier.Cores)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Prefetch = PV8
	cfg.PhaseFlush = true
	cfg.Timing = true
	cfg.Cost = timing.Config{Enabled: true}
	return cfg
}

// stepPieces steps sys through pieces of StepAllN calls and returns the
// statistics a Run would collect, plus every core's clock.
func stepPieces(sys *System, pieces []int) (Result, []uint64) {
	for _, k := range pieces {
		sys.StepAllN(k)
	}
	var res Result
	sys.foldPVResidual()
	collectStats(sys, &res)
	return res, append([]uint64(nil), sys.clock...)
}

// stepOracle steps a live system access by access, round-robin, flushing
// a phase-flush core's predictor when its trace.Phased stream is about to
// draw the first access of a new phase: the edge positions come from the
// stream itself, independently of the system's edge schedule.
func stepOracle(sys *System, rounds int) (Result, []uint64) {
	cur := make([]int, len(sys.gens))
	for r := 0; r < rounds; r++ {
		for c, g := range sys.gens {
			if p, ok := g.(*trace.Phased); ok && sys.edges[c] != nil && p.Phase() != cur[c] {
				cur[c] = p.Phase()
				sys.foldPVResidualCore(c)
				sys.preds[c].Reset()
				sys.rebaseProxySnapshot(c)
			}
			sys.stepAccess(c, g.Next())
		}
	}
	return stepPieces(sys, nil)
}

// TestPhaseEdgesSplitInvariant pins where phase-flush edges fire: at the
// exact (round, core) position of each core's first access of a new
// phase, however the run is split into StepAllN calls. A mix whose cores
// switch at different rounds, with phases shorter than a batch, must match
// a per-access oracle in one StepAllN call, and again when stepped in
// pieces of 1, 7, batchLen, batchLen+3 accesses and one ending exactly on
// an edge — on live and compiled streams, and after Reset.
func TestPhaseEdgesSplitInvariant(t *testing.T) {
	cfg := phasedFlushConfig(t, "DB2@500+Apache@500/Qry1@300+DB2@900/Apache/DB2@1000+Apache@200")
	total := cfg.Warmup + cfg.Measure
	oracle, oracleClock := stepOracle(NewSystem(cfg), total)
	for _, compile := range []bool{false, true} {
		ccfg := cfg
		ccfg.Compile = compile
		whole, wholeClock := stepPieces(NewSystem(ccfg), []int{total})
		if !reflect.DeepEqual(whole, oracle) || !reflect.DeepEqual(wholeClock, oracleClock) {
			t.Fatalf("compile=%v: StepAllN diverges from the per-access oracle:\n%+v\nvs\n%+v", compile, whole, oracle)
		}

		sys := NewSystem(ccfg)
		if sys.edges == nil || sys.edges[2] != nil {
			t.Fatal("edge schedules not built for exactly the phased cores")
		}
		for pass := 0; pass < 2; pass++ {
			pieces := []int{1, 7, batchLen, batchLen + 3}
			done := 0
			for _, k := range pieces {
				done += k
			}
			// A piece ending exactly on core 0's next edge: the flush must
			// fire at the start of the following call.
			onEdge := int(sys.edges[0].next) - done
			for onEdge <= 0 {
				onEdge += 500
			}
			pieces = append(pieces, onEdge, total-done-onEdge)
			got, clock := stepPieces(sys, pieces)
			if !reflect.DeepEqual(whole, got) || !reflect.DeepEqual(wholeClock, clock) {
				t.Fatalf("compile=%v pass %d: split run %v diverges from one StepAllN call:\n%+v\nvs\n%+v",
					compile, pass, pieces, whole, got)
			}
			sys.Reset()
		}
	}
}

// TestRunSMARTSCompiledMatchesLive pins RunSMARTS's Compile path: the
// compiled stream covers the whole plan and the result equals the live
// run, on a plain and a phase-flush configuration.
func TestRunSMARTSCompiledMatchesLive(t *testing.T) {
	plan := SMARTSConfig{Samples: 4, DetailWarm: 300, Measure: 300, FastForward: 900}
	plain := quickConfig(t, "DB2")
	plain.Prefetch = PV8
	plain.Warmup = 2_000
	flush := phasedFlushConfig(t, "DB2@500+Apache@700")
	flush.Warmup = 2_000
	for name, cfg := range map[string]Config{"pv8": plain, "phased-pv8-flush": flush} {
		t.Run(name, func(t *testing.T) {
			live := RunSMARTS(cfg, plan)
			ccfg := cfg
			ccfg.Compile = true
			got := RunSMARTS(ccfg, plan)
			if !got.Config.Compile {
				t.Fatal("RunSMARTS dropped the caller's Compile switch from Result.Config")
			}
			got.Config.Compile = false
			if !reflect.DeepEqual(live, got) {
				t.Fatalf("compiled SMARTS run diverges from live run:\n%+v\nvs\n%+v", live, got)
			}
		})
	}
}
