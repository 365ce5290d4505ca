package sim

import (
	"reflect"
	"strings"
	"testing"

	"pvsim/internal/timing"
)

// TestCoreParallelBitIdentical is the determinism pin of the two-phase
// parallel stepper: for every prefetcher wiring resetConfigs covers —
// including the ineligible ones that must fall back to serial stepping —
// a Config.CoreParallel run must produce exactly the Result of the serial
// run, with and without the compiled-trace fast path underneath.
func TestCoreParallelBitIdentical(t *testing.T) {
	cfgs := resetConfigs(t)
	cost := cfgs["pv8"]
	cost.Cost = timing.Config{Enabled: true}
	cfgs["pv8-cost"] = cost

	for name, cfg := range cfgs {
		for _, compile := range []bool{false, true} {
			sub := name
			if compile {
				sub += "-compiled"
			}
			t.Run(sub, func(t *testing.T) {
				serial := Run(cfg)

				pcfg := cfg
				pcfg.CoreParallel = true
				pcfg.Compile = compile
				sys := NewSystem(pcfg)
				got := sys.Run()
				// Result embeds the Config; CoreParallel and Compile are pure
				// execution strategies excluded from Signature. Normalize them
				// so only simulation output is compared.
				got.Config.CoreParallel = false
				got.Config.Compile = false
				if !reflect.DeepEqual(serial, got) {
					t.Fatalf("core-parallel run diverges from serial run:\n%+v\nvs\n%+v", serial, got)
				}
			})
		}
	}
}

// TestCoreParallelEligibility pins the fallback gate: configs the two-phase
// stepper cannot reproduce byte-for-byte (timing mode, shared tables,
// on-chip-only PV, phase-flush edges) must silently run serial, and
// the plain wirings must actually engage the parallel path.
func TestCoreParallelEligibility(t *testing.T) {
	cfgs := resetConfigs(t)
	wantActive := map[string]bool{
		"baseline":         true,
		"dedicated":        true,
		"infinite":         true,
		"pv8":              true,
		"stride-pv":        true,
		"btb-dedicated":    true,
		"btb-pv":           true,
		"mix-pv8":          true,
		"pv8-shared":       false, // shared SMS table: cross-core mutation in the local phase
		"pv8-onchip-only":  false, // drop hook mutates predictor state at commit time
		"pv8-timing":       false, // timing fold is per-access serial by definition
		"phased-pv8-flush": false, // flush edges reset predictors at exact (round, core) positions
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			want, ok := wantActive[name]
			if !ok {
				t.Fatalf("resetConfigs gained entry %q; classify it here", name)
			}
			cfg.CoreParallel = true
			sys := NewSystem(cfg)
			if got := sys.CoreParallelActive(); got != want {
				t.Fatalf("CoreParallelActive() = %v, want %v", got, want)
			}
		})
	}

	// Single-core systems have nothing to parallelize.
	one := quickConfig(t, "Apache")
	one.Hier.Cores = 1
	one.CoreParallel = true
	if NewSystem(one).CoreParallelActive() {
		t.Fatal("single-core system engaged the parallel stepper")
	}
}

// TestCoreParallelSignatureUnchanged pins that CoreParallel stays out of
// the cache key: parallel runs are bit-identical, so they must share
// pooled systems and cached results with serial runs.
func TestCoreParallelSignatureUnchanged(t *testing.T) {
	cfg := quickConfig(t, "Apache")
	pcfg := cfg
	pcfg.CoreParallel = true
	if cfg.Signature() != pcfg.Signature() {
		t.Fatalf("CoreParallel changed the signature:\n%s\nvs\n%s", cfg.Signature(), pcfg.Signature())
	}
}

// TestCoreParallelResetReuse pins the pool-reuse path: a parallel system
// Reset and re-Run must reproduce its first Result exactly, and toggling
// the mode on a live system via SetCoreParallel must track eligibility.
func TestCoreParallelResetReuse(t *testing.T) {
	cfg := quickConfig(t, "DB2")
	cfg.Prefetch = PV8
	cfg.CoreParallel = true
	sys := NewSystem(cfg)
	if !sys.CoreParallelActive() {
		t.Fatal("PV8 system did not engage the parallel stepper")
	}
	first := sys.Run()
	sys.Reset()
	if !sys.CoreParallelActive() {
		t.Fatal("Reset dropped the parallel stepper")
	}
	second := sys.Run()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("parallel reset-system run diverges:\n%+v\nvs\n%+v", first, second)
	}

	sys.Reset()
	if sys.SetCoreParallel(false) {
		t.Fatal("SetCoreParallel(false) reported engagement")
	}
	serial := sys.Run()
	serial.Config.CoreParallel = first.Config.CoreParallel
	if !reflect.DeepEqual(first, serial) {
		t.Fatalf("serial re-run on the same system diverges:\n%+v\nvs\n%+v", first, serial)
	}
}

// TestCheckStreamsTruncated is the regression pin for the dry-stream
// panic: compiling fewer accesses than the run needs must surface as a
// descriptive error from CheckStreams/RunChecked — up front, before any
// stepping — while Run still panics with the same diagnosis for callers
// that skipped the checked surface.
func TestCheckStreamsTruncated(t *testing.T) {
	cfg := quickConfig(t, "Apache")
	cfg.Prefetch = PV8

	sys := NewSystem(cfg)
	if err := sys.CheckStreams(); err != nil {
		t.Fatalf("live system CheckStreams: %v", err)
	}
	short := cfg.Warmup + cfg.Measure - 1000
	sys.CompileStreams(short)
	err := sys.CheckStreams()
	if err == nil {
		t.Fatal("CheckStreams accepted truncated streams")
	}
	for _, want := range []string{"core 0", "holds", "recompile"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("CheckStreams error %q missing %q", err, want)
		}
	}
	if _, rerr := sys.RunChecked(); rerr == nil {
		t.Fatal("RunChecked ran a truncated compiled system")
	}

	// Run must panic up front with the dry-stream diagnosis, not step into
	// the truncation.
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("Run did not panic on truncated streams")
			}
			if err, ok := r.(error); !ok || !strings.Contains(err.Error(), "holds") {
				t.Fatalf("Run panic %v is not the dry-stream diagnosis", r)
			}
		}()
		sys.Run()
	}()

	// A correctly sized recompile clears the error and the run completes —
	// on both the serial and the parallel stepper.
	fresh := NewSystem(cfg)
	fresh.CompileStreams(cfg.Warmup + cfg.Measure)
	if err := fresh.CheckStreams(); err != nil {
		t.Fatalf("full-length CheckStreams: %v", err)
	}
	if _, err := fresh.RunChecked(); err != nil {
		t.Fatalf("full-length RunChecked: %v", err)
	}

	psys := NewSystem(cfg)
	psys.CompileStreams(short)
	psys.SetCoreParallel(true)
	if _, err := psys.RunChecked(); err == nil {
		t.Fatal("parallel RunChecked ran truncated streams")
	}
}
