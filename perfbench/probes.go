package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"pvsim/internal/sim"
	"pvsim/internal/sms"
	"pvsim/internal/sweep"
	"pvsim/internal/timing"
	"pvsim/internal/trace"
	"pvsim/pv"
)

// sink keeps probe results alive so the compiler cannot drop timed calls.
var sink uint64

// simLayers splits the host time of one simulated access by module, on
// cell (a scenario config with no prefetcher). Each variant adds one
// module to the previous one, so differences of their per-access times
// attribute the cost:
//
//	trace   Generator.Next over the cell's per-core streams
//	memsys  no prefetcher, minus trace: hierarchy, directory and step loop
//	sms     a dedicated 1K-11a engine, minus no prefetcher
//	core    PV-8, minus 1K-11a: PVProxy, PVTable, set codec, PV traffic
//	timing  PV-8 with the cost model, minus PV-8
//	cpu     PV-8 with the IPC model, minus PV-8
//
// Variants are timed with spans around every System.StepAllN call, rounds
// times in interleaved order, and each difference uses the medians.
// sim.ns_per_access is runNs, the workload's own System.Run time per
// access, or when runNs < 0 a System.Run of the PV-8 + cost variant timed
// here; the part of it the five stages of that variant do not cover is
// sim.unattributed_ns_per_access.
func simLayers(b *bench, cell sim.Config, rounds int, runNs float64) error {
	sms1k, err := pv.SpecByName("1K-11a")
	if err != nil {
		return err
	}
	pv8, err := pv.SpecByName("PV-8")
	if err != nil {
		return err
	}
	cell.Prefetch, cell.Cost, cell.Timing, cell.Windows = sim.Baseline, timing.Config{}, false, 1
	withPV := func(spec pv.Spec) sim.Config { c := cell; c.Prefetch = spec; return c }
	cost := withPV(pv8)
	cost.Cost = timing.Config{Enabled: true}
	ipc := withPV(pv8)
	ipc.Timing, ipc.Windows = true, 20
	variants := []struct {
		name string
		cfg  sim.Config
	}{
		{"none", cell}, {"1K-11a", withPV(sms1k)}, {"PV-8", withPV(pv8)}, {"PV-8+cost", cost}, {"PV-8+ipc", ipc},
	}

	accesses := runAccesses(cell)
	ns := map[string][]float64{}
	var runs []float64
	var last *sim.System
	var res sim.Result
	for r := 0; r < rounds; r++ {
		ns["trace"] = append(ns["trace"], float64(generate(b.tr, cell, r).Nanoseconds())/float64(accesses))
		for _, v := range variants {
			d := stepAll(b.tr, v.name, v.cfg, r)
			ns[v.name] = append(ns[v.name], float64(d.Nanoseconds())/float64(accesses))
		}
		last = sim.NewSystem(cost)
		t0 := time.Now()
		res = last.Run()
		t1 := time.Now()
		b.tr.add("sim.System.Run", t0, t1, -1, r)
		runs = append(runs, float64(t1.Sub(t0).Nanoseconds())/float64(accesses))
	}
	if runNs < 0 {
		runNs = median(runs)
	}
	m := func(name string) float64 { return median(ns[name]) }
	layers := map[string]float64{
		"trace.ns_per_access":       m("trace"),
		"memsys.ns_per_access":      m("none") - m("trace"),
		"sms.ns_per_access":         m("1K-11a") - m("none"),
		"core.pv_ns_per_access":     m("PV-8") - m("1K-11a"),
		"timing.fold_ns_per_access": m("PV-8+cost") - m("PV-8"),
	}
	attributed := 0.0
	for name, v := range layers {
		b.set(name, v)
		attributed += v
	}
	b.set("cpu.ns_per_access", m("PV-8+ipc")-m("PV-8"))
	b.set("sim.ns_per_access", runNs)
	b.set("sim.accesses", float64(accesses))
	b.set("sim.unattributed_ns_per_access", runNs-attributed)

	// Exact counts from the last PV-8 + cost run.
	b.set("memsys.l1d_miss_ratio", ratio(float64(res.L1DReadMisses()), float64(res.L1DReads())))
	b.set("memsys.l2_hit_ratio", 1-ratio(float64(res.Mem.L2MissesTotal()), float64(res.Mem.L2RequestsTotal())))
	b.set("memsys.directory_entries", float64(last.Hier.DirectorySize()))
	px := res.ProxyTotals()
	b.set("core.pvcache_hit_ratio", px.HitRate())
	b.set("core.pv_fills_per_kaccess", ratio(float64(px.Fetches)*1000, float64(cell.Hier.Cores*cell.Measure)))
	b.set("core.pv_l2_fill_ratio", px.L2FillRate())
	codecNs, err := codecProbe(b.tr, last, pv8)
	if err != nil {
		return err
	}
	b.set("core.codec_ns_per_set", codecNs)
	return nil
}

// stepAll builds cfg's system and times its warmup and measured phases,
// driven through System.StepAllN exactly as System.Run drives them.
func stepAll(tr *tracer, variant string, cfg sim.Config, run int) time.Duration {
	sys := sim.NewSystem(cfg)
	parent := tr.begin("probe."+variant, -1, run)
	t0 := time.Now()
	sys.StepAllN(cfg.Warmup)
	t1 := time.Now()
	sys.ResetStats()
	t2 := time.Now()
	sys.StepAllN(cfg.Measure)
	t3 := time.Now()
	tr.end(parent)
	tr.add("sim.System.StepAllN", t0, t1, parent, run)
	tr.add("sim.System.StepAllN", t2, t3, parent, run)
	return t1.Sub(t0) + t3.Sub(t2)
}

// generate times every core's access stream of cfg through Next, with the
// same per-core parameters and seed the simulator uses.
func generate(tr *tracer, cfg sim.Config, run int) time.Duration {
	var total time.Duration
	n := cfg.Warmup + cfg.Measure
	for c := 0; c < cfg.Hier.Cores; c++ {
		phases := []trace.Phase{{Params: cfg.Workload.Params}}
		if len(cfg.Cores) > 0 {
			phases = cfg.Cores[c].Phases
		}
		var src interface{ Next() trace.Access }
		if len(phases) == 1 {
			src = trace.NewGenerator(phases[0].Params, cfg.Seed, c)
		} else {
			src = trace.NewPhased(phases, cfg.Seed, c)
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			a := src.Next()
			sink += uint64(a.Addr)
		}
		t1 := time.Now()
		tr.add("trace.Generator.Next", t0, t1, -1, run)
		total += t1.Sub(t0)
	}
	return total
}

// codecProbe times SetCodec.UnpackInto over every populated PVTable set
// the finished system holds, after checking that the codec it builds
// decodes each set exactly as the table does.
func codecProbe(tr *tracer, sys *sim.System, spec pv.Spec) (float64, error) {
	var blocks [][]byte
	var codec sms.SetCodec
	for c := 0; c < sys.Hier.Config().Cores; c++ {
		inst, ok := sys.Predictor(c).(*sms.Instance)
		if !ok || inst.VPHT() == nil {
			return 0, fmt.Errorf("codec probe: core %d has no virtualized SMS table", c)
		}
		tbl := inst.VPHT().Table()
		tcfg := tbl.Config()
		geom := sms.DefaultGeometry()
		vcfg := sms.VPHTConfig{Geom: geom, Sets: tcfg.Sets, Ways: spec.Ways, BlockBytes: tcfg.BlockBytes}
		var err error
		codec, err = sms.NewSetCodec(spec.Ways, vcfg.TagBits(), uint(geom.RegionBlocks), tcfg.BlockBytes)
		if err != nil {
			return 0, err
		}
		for set := 0; set < tcfg.Sets; set++ {
			raw := tbl.RawBytes(set)
			if raw == nil {
				continue
			}
			var got sms.PHTSet
			codec.UnpackInto(raw, &got)
			if want := tbl.ReadSet(set); !reflect.DeepEqual(got, want) {
				return 0, fmt.Errorf("codec probe: core %d set %d decodes differently from its table", c, set)
			}
			blocks = append(blocks, raw)
		}
	}
	if len(blocks) == 0 {
		return 0, fmt.Errorf("codec probe: no PVTable set was written")
	}
	var dst sms.PHTSet
	var samples []float64
	for s := 0; s < 5; s++ {
		passes := 0
		t0 := time.Now()
		for time.Since(t0) < 10*time.Millisecond {
			for _, raw := range blocks {
				codec.UnpackInto(raw, &dst)
			}
			passes++
		}
		t1 := time.Now()
		tr.add("sms.SetCodec.UnpackInto", t0, t1, -1, s)
		samples = append(samples, float64(t1.Sub(t0).Nanoseconds())/float64(passes*len(blocks)))
		sink += uint64(dst.Victim)
	}
	return median(samples), nil
}

// sweepProbe measures the sweep and report layers for a workload that
// does not run the sweep engine itself: three runs of g on fresh engines.
func sweepProbe(b *bench, g sweep.Grid) error {
	parallel := runtime.NumCPU()
	var runs []sweepTiming
	for r := 0; r < 3; r++ {
		s, err := timedSweep(b.tr, sweep.New(sweep.Options{Parallel: parallel}), g, r)
		if err != nil {
			return fmt.Errorf("sweep probe: %w", err)
		}
		runs = append(runs, s)
	}
	setSweepMetrics(b, runs, parallel)
	return nil
}
