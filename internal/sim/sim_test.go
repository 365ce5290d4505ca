package sim

import (
	"strings"
	"testing"

	"pvsim/internal/memsys"
	"pvsim/internal/workloads"
	"pvsim/pv"

	_ "pvsim/pv/predictors" // register sms, stride, btb
)

// quickConfig returns a small, fast run of the given workload.
func quickConfig(t *testing.T, name string) Config {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default(w)
	cfg.Warmup = 20_000
	cfg.Measure = 20_000
	return cfg
}

func TestConfigValidate(t *testing.T) {
	cfg := quickConfig(t, "Apache")
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Measure = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero measure accepted")
	}
	bad = cfg
	bad.CoreParallel = true
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "parallel stepper was removed") {
		t.Errorf("CoreParallel accepted or misreported: %v", err)
	}
	bad = cfg
	bad.Prefetch = pv.Spec{Name: "sms", Mode: pv.Dedicated}
	if err := bad.Validate(); err == nil {
		t.Error("dedicated without geometry accepted")
	}
	bad = cfg
	bad.Prefetch = pv.Spec{Name: "sms", Mode: pv.Virtualized, Sets: 1024, Ways: 11}
	if err := bad.Validate(); err == nil {
		t.Error("virtualized without PVCache size accepted")
	}
	bad = cfg
	bad.Prefetch = pv.Spec{Name: "sms", Mode: pv.Mode(9), Sets: 16, Ways: 2}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range mode accepted")
	}
	bad = cfg
	// 32K sets x 64B = 2MB per core: overflows the 1MB PVStart spacing and
	// would overlap the next core's reserved range.
	bad.Prefetch = pv.Spec{Name: "sms", Mode: pv.Virtualized, Sets: 32768, Ways: 11, PVCacheEntries: 8}
	if err := bad.Validate(); err == nil {
		t.Error("PVTable larger than the PVStart spacing accepted")
	}
	bad = cfg
	bad.Prefetch = pv.Spec{Name: "no-such-predictor", Mode: pv.Dedicated, Sets: 16, Ways: 2}
	err := bad.Validate()
	if err == nil {
		t.Fatal("unregistered predictor accepted")
	}
	// The error must name the registered alternatives, not just "unknown".
	for _, want := range []string{"sms", "stride", "btb"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-predictor error %q does not list %q", err, want)
		}
	}
}

func TestPrefetcherLabels(t *testing.T) {
	cases := map[string]PrefetcherConfig{
		"none":        Baseline,
		"Infinite":    SMSInfinite,
		"1K-16a":      SMS1K16,
		"1K-11a":      SMS1K11,
		"16-11a":      SMS16,
		"8-11a":       SMS8,
		"PV-8":        PV8,
		"PV-16":       PV16,
		"512-11a":     DedicatedSized(512),
		"stride-1024": StrideLarge,
		"stride-PV-8": StridePV8,
		"btb-PV-8": {Name: "btb", Mode: pv.Virtualized,
			Sets: 4096, Ways: 4, PVCacheEntries: 8},
	}
	for want, pc := range cases {
		if got := pc.Label(); got != want {
			t.Errorf("Label = %q, want %q", got, want)
		}
	}
}

func TestPVStartPlacement(t *testing.T) {
	if PVStart(0) != 0xF0000000 {
		t.Errorf("PVStart(0) = %#x", uint64(PVStart(0)))
	}
	if PVStart(1)-PVStart(0) != 1<<20 {
		t.Error("PVTables not 1MB apart")
	}
	// PVTables must not collide with workload address windows.
	for _, w := range workloads.All() {
		cfg := Default(w)
		cfg.Prefetch = PV8
		for _, r := range cfg.Prefetch.PVRanges(cfg.Hier.Cores, cfg.Hier.L2.BlockBytes) {
			if r.Start >= 0x1_0000_0000 {
				t.Errorf("PV range %v overlaps application windows", r)
			}
		}
	}
}

func TestBaselineRunProducesTraffic(t *testing.T) {
	res := Run(quickConfig(t, "Apache"))
	if res.L1DReads() == 0 || res.L1DReadMisses() == 0 {
		t.Fatal("baseline run produced no reads/misses")
	}
	if res.Mem.L2RequestsTotal() == 0 {
		t.Fatal("no L2 traffic")
	}
	if res.PrefetchIssued() != 0 {
		t.Error("baseline issued prefetches")
	}
	if len(res.Predictors) != 0 || len(res.Proxies) != 0 {
		t.Error("baseline carries prefetcher stats")
	}
}

func TestMatchedTracesAcrossConfigs(t *testing.T) {
	// The same workload+seed must see identical demand streams regardless
	// of prefetcher: demand read counts are equal.
	base := Run(quickConfig(t, "Qry17"))
	cfg := quickConfig(t, "Qry17")
	cfg.Prefetch = SMS1K11
	pf := Run(cfg)
	if base.L1DReads() != pf.L1DReads() {
		t.Fatalf("demand reads differ: %d vs %d", base.L1DReads(), pf.L1DReads())
	}
}

func TestPrefetchingCoversMisses(t *testing.T) {
	base := Run(quickConfig(t, "Qry1"))
	cfg := quickConfig(t, "Qry1")
	cfg.Prefetch = SMS1K11
	pf := Run(cfg)
	cov := CoverageOf(base, pf)
	if cov.Covered <= 0.2 {
		t.Errorf("Qry1 coverage = %v, want substantial", cov.Covered)
	}
	if cov.Covered+cov.Uncovered < 0.95 || cov.Covered+cov.Uncovered > 1.05 {
		t.Errorf("covered+uncovered = %v, want ~1", cov.Covered+cov.Uncovered)
	}
	if pf.CoveredMisses() == 0 || pf.PrefetchIssued() == 0 {
		t.Error("no prefetch activity")
	}
}

func TestVirtualizedMatchesDedicated(t *testing.T) {
	// The paper's headline: PV-8 coverage ~= dedicated 1K-11a coverage.
	base := Run(quickConfig(t, "Zeus"))
	ded := quickConfig(t, "Zeus")
	ded.Prefetch = SMS1K11
	dres := Run(ded)
	pv := quickConfig(t, "Zeus")
	pv.Prefetch = PV8
	pres := Run(pv)

	dcov := CoverageOf(base, dres)
	pcov := CoverageOf(base, pres)
	diff := dcov.Covered - pcov.Covered
	if diff < -0.03 || diff > 0.03 {
		t.Errorf("PV-8 coverage %v vs dedicated %v: differ by more than 3%%", pcov.Covered, dcov.Covered)
	}
	if len(pres.Proxies) == 0 {
		t.Fatal("no proxy stats")
	}
	proxy := pres.ProxyTotals()
	if proxy.Fetches == 0 {
		t.Error("PVProxy issued no fetches")
	}
	// The paper's >98% emerges at full scale with a warm L2; at this tiny
	// test scale a majority-L2 fill rate already proves the mechanism.
	if proxy.L2FillRate() < 0.6 {
		t.Errorf("L2 fill rate = %v, want L2-dominated fills", proxy.L2FillRate())
	}
}

func TestVirtualizedAddsL2Traffic(t *testing.T) {
	ded := quickConfig(t, "DB2")
	ded.Prefetch = SMS1K11
	dres := Run(ded)
	pv := quickConfig(t, "DB2")
	pv.Prefetch = PV8
	pres := Run(pv)
	if pres.Mem.L2Requests[memsys.PVFetch] == 0 {
		t.Fatal("no PV fetch traffic")
	}
	if pres.Mem.L2RequestsTotal() <= dres.Mem.L2RequestsTotal() {
		t.Error("virtualization did not increase L2 requests")
	}
}

func TestTimingRunProducesIPC(t *testing.T) {
	cfg := quickConfig(t, "Apache")
	cfg.Timing = true
	cfg.Windows = 5
	res := Run(cfg)
	if res.IPC <= 0 {
		t.Fatalf("IPC = %v", res.IPC)
	}
	if len(res.WindowIPC) != 5 {
		t.Fatalf("windows = %d", len(res.WindowIPC))
	}
	cfg.Prefetch = SMS1K11
	pf := Run(cfg)
	iv, err := SpeedupOver(res, pf)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Mean <= 1.0 {
		t.Errorf("prefetching slowed Apache down: %v", iv)
	}
}

func TestFunctionalRunHasNoTiming(t *testing.T) {
	res := Run(quickConfig(t, "Apache"))
	if res.IPC != 0 || len(res.WindowIPC) != 0 {
		t.Error("functional run produced timing data")
	}
}

func TestOnChipOnlyDropsPVWrites(t *testing.T) {
	cfg := quickConfig(t, "Oracle")
	cfg.Prefetch = PV8
	cfg.Prefetch.OnChipOnly = true
	// A small L2 forces PV lines out of the cache.
	cfg.Hier.L2.SizeBytes = 256 << 10
	res := Run(cfg)
	if res.Mem.OffChipWrites[memsys.ClassPV] != 0 {
		t.Error("PV data written off-chip despite OnChipOnly")
	}
	if res.Mem.PVDroppedWritebacks == 0 {
		t.Error("no PV drops recorded; test not exercising the path")
	}
}

func TestSharedTableRuns(t *testing.T) {
	cfg := quickConfig(t, "Apache")
	cfg.Prefetch = PV8
	cfg.Prefetch.SharedTable = true
	res := Run(cfg)
	if got := len(cfg.Prefetch.PVRanges(cfg.Hier.Cores, cfg.Hier.L2.BlockBytes)); got != 1 {
		t.Fatalf("shared table has %d ranges", got)
	}
	if res.ProxyTotals().Fetches == 0 {
		t.Error("shared-table proxies idle")
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := quickConfig(t, "Qry2")
	cfg.Prefetch = PV8
	a, b := Run(cfg), Run(cfg)
	if a.L1DReadMisses() != b.L1DReadMisses() ||
		a.Mem.L2RequestsTotal() != b.Mem.L2RequestsTotal() ||
		a.ProxyTotals().Fetches != b.ProxyTotals().Fetches {
		t.Fatal("identical configs produced different results")
	}
}

func TestCoverageOfEmptyBaseline(t *testing.T) {
	var empty Result
	c := CoverageOf(empty, empty)
	if c.Covered != 0 || c.Uncovered != 0 {
		t.Error("zero baseline should give zero coverage")
	}
}

func TestProxyConfigScalesDown(t *testing.T) {
	pc, clamped := pv.ProxyConfigFor(SMSVirtualizedSized(2), "test")
	if pc.MSHRs > pc.CacheEntries || pc.EvictBufEntries > pc.CacheEntries {
		t.Errorf("proxy config not scaled down: %+v", pc)
	}
	if !clamped {
		t.Error("clamping not reported for a 2-entry PVCache")
	}
	if err := pc.Validate(); err != nil {
		t.Fatal(err)
	}
	// The paper's default shape needs no clamping, and the run must record
	// the effective configuration either way.
	if _, clamped := pv.ProxyConfigFor(PV8, "test"); clamped {
		t.Error("PV-8 reported as clamped")
	}
	cfg := quickConfig(t, "Apache")
	cfg.Prefetch = SMSVirtualizedSized(2)
	res := Run(cfg)
	if res.EffectiveProxy.MSHRs != 2 || res.EffectiveProxy.EvictBufEntries != 2 || !res.ProxyClamped {
		t.Errorf("effective proxy config not recorded: %+v clamped=%v", res.EffectiveProxy, res.ProxyClamped)
	}
}

func TestInvalidationsOccurAcrossCores(t *testing.T) {
	res := Run(quickConfig(t, "Zeus"))
	var inv uint64
	for _, c := range res.Mem.Core {
		inv += c.Invalidations
	}
	if inv == 0 {
		t.Error("no cross-core invalidations despite shared regions")
	}
}

func TestTimingRunRecordsBankWaits(t *testing.T) {
	cfg := quickConfig(t, "DB2")
	cfg.Timing = true
	cfg.Windows = 4
	res := Run(cfg)
	var waits uint64
	for k := memsys.AccessKind(0); k < memsys.NumKinds; k++ {
		waits += res.Mem.BankWaitCycles[k]
	}
	if waits == 0 {
		t.Error("no bank-wait cycles recorded in a timing run with contention")
	}

	// Functional runs must not model contention.
	fres := Run(quickConfig(t, "DB2"))
	for k := memsys.AccessKind(0); k < memsys.NumKinds; k++ {
		if fres.Mem.BankWaitCycles[k] != 0 {
			t.Fatalf("functional run recorded bank waits for %v", k)
		}
	}
}

func TestTimingVirtualizedUsesPatternBuffer(t *testing.T) {
	cfg := quickConfig(t, "Qry1")
	cfg.Timing = true
	cfg.Prefetch = PV8
	res := Run(cfg)
	// The buffer exists and is finite; drops may or may not occur, but the
	// accounting fields must be consistent: predicted blocks only flow when
	// reservations succeed.
	if res.PredictorCounter("engine", "PredictedBlocks") == 0 {
		t.Fatal("no predictions in timing PV run")
	}
}

func TestWindowCountRespected(t *testing.T) {
	cfg := quickConfig(t, "Apache")
	cfg.Timing = true
	cfg.Windows = 7
	res := Run(cfg)
	if len(res.WindowIPC) != 7 {
		t.Errorf("windows = %d, want 7", len(res.WindowIPC))
	}
}

func TestSpeedupUnderAppPriorityArbitration(t *testing.T) {
	cfg := quickConfig(t, "Zeus")
	cfg.Timing = true
	cfg.Windows = 5
	cfg.Hier.PrioritizeAppOverPV = true
	base := cfg
	cfg.Prefetch = PV8
	bres, res := Run(base), Run(cfg)
	iv, err := SpeedupOver(bres, res)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Mean <= 1 {
		t.Errorf("PV slower than baseline under app-priority arbitration: %v", iv)
	}
	if res.Mem.BankWaitCycles[memsys.PVFetch] == 0 {
		t.Error("no PV bank waits recorded under arbitration")
	}
}

func TestStridePrefetcherRuns(t *testing.T) {
	base := Run(quickConfig(t, "Qry1"))
	cfg := quickConfig(t, "Qry1")
	cfg.Prefetch = StrideLarge
	res := Run(cfg)
	if len(res.Predictors) == 0 {
		t.Fatal("no stride stats")
	}
	if res.PredictorCounter("stride", "Prefetches") == 0 {
		t.Fatal("stride engine issued no prefetches on scan-dominated Qry1")
	}
	cov := CoverageOf(base, res)
	if cov.Covered <= 0 {
		t.Error("stride covered nothing on Qry1")
	}
}

func TestStrideVirtualizedMatchesDedicated(t *testing.T) {
	base := Run(quickConfig(t, "Qry17"))
	ded := quickConfig(t, "Qry17")
	ded.Prefetch = StrideLarge
	dres := Run(ded)
	pv := quickConfig(t, "Qry17")
	pv.Prefetch = StridePV8
	pres := Run(pv)

	dcov := CoverageOf(base, dres)
	pcov := CoverageOf(base, pres)
	if diff := dcov.Covered - pcov.Covered; diff < -0.03 || diff > 0.03 {
		t.Errorf("stride PV coverage %v vs dedicated %v", pcov.Covered, dcov.Covered)
	}
	if pres.ProxyTotals().Fetches == 0 {
		t.Fatal("stride PVProxy idle")
	}
	if pres.Mem.L2Requests[memsys.PVFetch] == 0 {
		t.Error("no PV traffic classified for virtualized stride")
	}
}

// TestBTBThroughSystem is the generality acceptance check: a predictor
// family this package never imports (the BTB) runs through the same System
// path as the prefetchers — virtualized table traffic shows up as PV
// traffic in the shared L2, statistics flow through the generic snapshots,
// and nothing under internal/sim names the family.
func TestBTBThroughSystem(t *testing.T) {
	cfg := quickConfig(t, "Apache")
	cfg.Prefetch = pv.Spec{Name: "btb", Mode: pv.Virtualized, Sets: 4096, Ways: 4, PVCacheEntries: 8}
	res := Run(cfg)

	lookups := res.PredictorCounter("btb", "Lookups")
	hits := res.PredictorCounter("btb", "Hits")
	if lookups == 0 || hits == 0 {
		t.Fatalf("BTB idle: %d lookups, %d hits", lookups, hits)
	}
	if res.PredictorCounter("stream", "Branches") != lookups {
		t.Errorf("branch stream (%d) and BTB lookups (%d) out of step",
			res.PredictorCounter("stream", "Branches"), lookups)
	}
	if res.ProxyTotals().Fetches == 0 {
		t.Error("virtualized BTB issued no PVProxy fetches")
	}
	if res.Mem.L2Requests[memsys.PVFetch] == 0 {
		t.Error("no PV traffic classified for the virtualized BTB")
	}
	ded := cfg
	ded.Prefetch = pv.Spec{Name: "btb", Mode: pv.Dedicated, Sets: 4096, Ways: 4}
	dres := Run(ded)
	if dres.Mem.L2Requests[memsys.PVFetch] != 0 {
		t.Error("dedicated BTB produced PV traffic")
	}
}

func TestStrideWeakerThanSMSOnIrregular(t *testing.T) {
	// Apache's patterns are irregular: SMS must beat stride clearly.
	base := Run(quickConfig(t, "Apache"))
	st := quickConfig(t, "Apache")
	st.Prefetch = StrideLarge
	sm := quickConfig(t, "Apache")
	sm.Prefetch = SMS1K11
	scov := CoverageOf(base, Run(st))
	mcov := CoverageOf(base, Run(sm))
	if scov.Covered >= mcov.Covered {
		t.Errorf("stride %v >= SMS %v on Apache", scov.Covered, mcov.Covered)
	}
}
