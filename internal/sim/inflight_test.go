package sim

import "testing"

// inflightEntries sums outstanding in-flight prefetch records across cores.
func inflightEntries(s *System) int {
	n := 0
	for _, m := range s.inflight {
		n += len(m)
	}
	return n
}

// TestNoInflightGrowthWhenDetailOff is the regression test for the
// unbounded in-flight map leak: with timing on but detail off (the SMARTS
// functional fast-forward state), prefetch issues used to insert into
// sys.inflight while nothing consumed or pruned it — the core clock is
// frozen, so entries could never retire. The sink must not insert at all
// in that state.
func TestNoInflightGrowthWhenDetailOff(t *testing.T) {
	cfg := quickConfig(t, "Apache")
	cfg.Prefetch = PV8
	cfg.Timing = true
	sys := NewSystem(cfg)

	sys.SetDetail(false)
	sys.StepAllN(30_000)
	if n := inflightEntries(sys); n != 0 {
		t.Fatalf("detail-off stepping leaked %d in-flight prefetch entries", n)
	}

	// Sanity: the detailed path still tracks in-flight prefetches (the
	// timeliness model depends on it).
	sys.SetDetail(true)
	seen := 0
	for i := 0; i < 5_000 && seen == 0; i++ {
		sys.StepAllN(1)
		seen = inflightEntries(sys)
	}
	if seen == 0 {
		t.Fatal("detailed stepping never tracked an in-flight prefetch; the timeliness path is dead")
	}
}
