package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// determinismScale keeps the guard fast while still exercising warmup,
// measurement and every prefetcher configuration fig4 sweeps.
const determinismScale = 0.0025

// TestRunnerDeterminism is the guard the hot-path buffer reuse is built
// under: two independent runners with the same seed must render the same
// report text, and a KeepSystems runner re-running after Reset — which
// reuses every retained sim.System in place — must render it a third time,
// byte for byte.
func TestRunnerDeterminism(t *testing.T) {
	e, err := ByID("fig4")
	if err != nil {
		t.Fatal(err)
	}

	run := func(opts Options) string {
		return e.Run(NewRunner(opts)).Text()
	}

	opts := Options{Scale: determinismScale, Seed: 42}
	a := run(opts)
	b := run(opts)
	if a != b {
		t.Fatalf("two fresh runners with the same seed diverge:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}

	keep := NewRunner(Options{Scale: determinismScale, Seed: 42, KeepSystems: true})
	c := e.Run(keep).Text()
	if a != c {
		t.Fatalf("KeepSystems first pass diverges from plain runner:\n--- plain ---\n%s\n--- keep ---\n%s", a, c)
	}
	keep.Reset()
	d := e.Run(keep).Text()
	if a != d {
		t.Fatalf("KeepSystems re-run after Reset diverges (system reuse is not bit-identical):\n--- first ---\n%s\n--- rerun ---\n%s", a, d)
	}
}

// goldenDigest pins the rendered text of `pvsim -scale 0.0025 -seed 42
// fig4 stride fig6 ablations`, captured on the PrefetcherKind enum
// implementation immediately before the pv-registry refactor. It asserts
// the refactor's bit-identity promise: collapsing the typed predictor
// slices into []pv.Instance changed no number in any pre-existing
// experiment. If an *intentional* behaviour change lands later, re-capture
// with:
//
//	go run ./cmd/pvsim -scale 0.0025 -seed 42 fig4 stride fig6 ablations | sha256sum
const goldenDigest = "367382e37bfe4313d40531b8915e2c3545b54cc6510e3cca787bb9c3e635ce35"

// goldenMixesDigest pins the rendered text of `pvsim -scale 0.0025 -seed 42
// mixes`, captured when the scenario subsystem landed. It holds the mixes
// experiment — heterogeneous co-runs, the phased ctx-switch mix, and the
// PhaseFlush variant — to the same byte-stability contract as the paper
// experiments. Re-capture after an intentional behaviour change with:
//
//	go run ./cmd/pvsim -scale 0.0025 -seed 42 mixes | sha256sum
const goldenMixesDigest = "4dfe76b61c8704ccae86539984349089bc573d7b3d395ac6aad3361954d1b37f"

// goldenTimingDigest pins the rendered text of `pvsim -scale 0.0025 -seed
// 42 timing`, captured when the cycle-approximate cost model landed. The
// timing experiment folds the same functional outcome streams the pinned
// coverage experiments run, so this digest holds the whole cost model —
// per-level demand costs, PVCache hit/miss penalties, MSHR stalls and the
// PV bandwidth term — to byte stability. Re-capture after an intentional
// behaviour change with:
//
//	go run ./cmd/pvsim -scale 0.0025 -seed 42 timing | sha256sum
const goldenTimingDigest = "cea5780dbd8a47243e78feaafdb990ad58377fae0853695101aabb7b1b802458"

// TestGoldenReportDigest re-renders the pinned experiment sets and
// compares the byte streams against their captures: the pre-pv-refactor
// set — SMS dedicated/infinite sweeps (fig4), both stride forms (stride),
// the PV comparison (fig6) and the §2.1/§2.2 design options including
// timing arbitration (ablations) — against goldenDigest (which the
// scenario subsystem must not have moved), and the mixes experiment
// against goldenMixesDigest.
func TestGoldenReportDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("golden digest re-runs five experiments; skipped with -short")
	}
	// Compiled traces claim bit-identity, so they must reproduce the very
	// same golden captures — no re-capture, no per-mode constants. Compiled
	// mixes include the PhaseFlush variant.
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"serial", Options{Scale: determinismScale, Seed: 42}},
		{"compiled", Options{Scale: determinismScale, Seed: 42, Compile: true}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			r := NewRunner(mode.opts)
			digest := func(ids ...string) string {
				var sb strings.Builder
				for _, id := range ids {
					e, err := ByID(id)
					if err != nil {
						t.Fatal(err)
					}
					sb.WriteString(e.Run(r).Text())
				}
				sum := sha256.Sum256([]byte(sb.String()))
				return hex.EncodeToString(sum[:])
			}
			if got := digest("fig4", "stride", "fig6", "ablations"); got != goldenDigest {
				t.Fatalf("report text diverged from the pre-refactor capture:\n got %s\nwant %s\n(run the pvsim command in the goldenDigest comment to inspect)", got, goldenDigest)
			}
			if got := digest("mixes"); got != goldenMixesDigest {
				t.Fatalf("mixes report text diverged from its capture:\n got %s\nwant %s\n(run the pvsim command in the goldenMixesDigest comment to inspect)", got, goldenMixesDigest)
			}
			if got := digest("timing"); got != goldenTimingDigest {
				t.Fatalf("timing report text diverged from its capture:\n got %s\nwant %s\n(run the pvsim command in the goldenTimingDigest comment to inspect)", got, goldenTimingDigest)
			}
		})
	}
}

// TestRunnerSeedSensitivity makes sure the determinism test has teeth: a
// different seed must actually change the numbers.
func TestRunnerSeedSensitivity(t *testing.T) {
	e, err := ByID("fig4")
	if err != nil {
		t.Fatal(err)
	}
	a := e.Run(NewRunner(Options{Scale: determinismScale, Seed: 42})).Text()
	b := e.Run(NewRunner(Options{Scale: determinismScale, Seed: 43})).Text()
	if a == b {
		t.Fatal("seeds 42 and 43 produced identical fig4 text; generator seeding is broken")
	}
}

// TestSeedZeroIsARealSeed is the regression test for the Options
// normalization bug that silently rewrote Seed 0 to 42: seed 0 must run as
// itself (different output from seed 42) and must stay deterministic.
func TestSeedZeroIsARealSeed(t *testing.T) {
	e, err := ByID("fig4")
	if err != nil {
		t.Fatal(err)
	}
	zero := e.Run(NewRunner(Options{Scale: determinismScale, Seed: 0})).Text()
	def := e.Run(NewRunner(Options{Scale: determinismScale, Seed: 42})).Text()
	if zero == def {
		t.Fatal("seed 0 rendered identically to seed 42; the 0->42 rewrite is back")
	}
	again := e.Run(NewRunner(Options{Scale: determinismScale, Seed: 0})).Text()
	if zero != again {
		t.Fatal("seed 0 is not deterministic across runners")
	}
}
