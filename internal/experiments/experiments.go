package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"pvsim/internal/report"
	"pvsim/internal/sim"
	"pvsim/internal/workloads"
)

// Options tune experiment execution.
type Options struct {
	// Scale multiplies the per-core access counts (1.0 = DefaultScale
	// measured accesses). Benches use small scales; final reports 1.0+.
	Scale float64
	// Seed feeds the workload generators. Every value — including 0 — is a
	// real seed, used as given; use DefaultOptions for the evaluation's
	// standard seed 42. (Earlier versions silently rewrote 0 to 42, which
	// made seed 0 unrunnable; TestSeedZeroIsARealSeed pins the fix.)
	Seed uint64
	// Parallel caps concurrent simulations (0 = GOMAXPROCS).
	Parallel int
	// KeepSystems retains each configuration's built sim.System so that a
	// Reset runner (or a repeated Run after Reset) re-executes by resetting
	// the existing system in place instead of rebuilding it — the
	// allocation-free re-run path benchmarks use. Off by default: retained
	// systems hold their cache arrays (megabytes each), which a one-shot
	// pvsim invocation has no reason to keep.
	KeepSystems bool
	// MaxSystems bounds how many built systems a KeepSystems runner retains
	// (each holds its cache arrays — megabytes). When the bound is exceeded
	// the least-recently-used system is dropped, keyed by config signature.
	// 0 means unbounded, which is fine for the fixed experiment set but not
	// for an open-ended sweep server.
	MaxSystems int
	// Compile opts every simulation into the compiled-trace batched
	// pipeline: fresh builds run with sim.Config.Compile set, and a system
	// re-acquired from the KeepSystems pool — a hot configuration, about to
	// run again — has its streams compiled in place. Results are
	// bit-identical to the generator path and share its cache keys
	// (sim.Signature excludes the switch). Every configuration compiles,
	// phase-flush mixes included.
	Compile bool
	// MaxResults bounds the result cache the same way (results are small —
	// kilobytes of statistics — but an open-ended server accumulates one
	// per distinct configuration forever). 0 means unbounded.
	MaxResults int
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...interface{})
}

// DefaultOptions runs at full scale with quiet logging.
func DefaultOptions() Options {
	return Options{Scale: 1.0, Seed: 42}
}

func (o Options) normalized() Options {
	if o.Scale <= 0 {
		o.Scale = 1.0
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	if o.Log == nil {
		o.Log = func(string, ...interface{}) {}
	}
	return o
}

// Runner executes simulations with caching and bounded parallelism.
type Runner struct {
	opts Options

	mu      sync.Mutex
	cache   map[string]*cachedResult
	systems map[string]*retainedSystem // retained built systems (KeepSystems)
	useTick uint64                     // recency clock for LRU eviction
	sem     chan struct{}
}

// retainedSystem is one pooled system plus the recency stamp MaxSystems
// eviction orders by.
type retainedSystem struct {
	sys     *sim.System
	lastUse uint64
}

func (e *retainedSystem) use() uint64 { return e.lastUse }

// cachedResult is one cached result plus the recency stamp MaxResults
// eviction orders by.
type cachedResult struct {
	res     sim.Result
	lastUse uint64
}

func (e *cachedResult) use() uint64 { return e.lastUse }

// evictOldest drops least-recently-used entries until m fits the bound
// (max <= 0 means unbounded). Both runner caches — systems and results —
// evict through it; the caller holds r.mu.
func evictOldest[E interface{ use() uint64 }](m map[string]E, max int) {
	if max <= 0 {
		return
	}
	for len(m) > max {
		oldestKey := ""
		oldest := uint64(0)
		for k, e := range m {
			if oldestKey == "" || e.use() < oldest {
				oldestKey, oldest = k, e.use()
			}
		}
		delete(m, oldestKey)
	}
}

// NewRunner builds a runner.
func NewRunner(opts Options) *Runner {
	o := opts.normalized()
	return &Runner{
		opts:    o,
		cache:   make(map[string]*cachedResult),
		systems: make(map[string]*retainedSystem),
		sem:     make(chan struct{}, o.Parallel),
	}
}

// Reset forgets every cached result, so subsequent Run calls re-simulate.
// Systems retained under Options.KeepSystems survive and are reset in
// place on their next use, making repeated sweeps over the same
// configurations rebuild-free.
func (r *Runner) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	clear(r.cache)
}

// Options returns the normalized options.
func (r *Runner) Options() Options { return r.opts }

// ConfigFor builds the standard functional run of a workload at the given
// scale and seed: the measured access count is scale x sim.DefaultScale
// (floored at 1000), and warmup lasts as long as measurement, mirroring the
// paper's 1B+1B cycle split — predictor tables must be warm before coverage
// is representative. Runner.baseConfig and the sweep engine both build
// their configs through it, so a sweep job and an experiment run of the
// same (workload, scale, seed) are the same simulation.
func ConfigFor(w workloads.Workload, scale float64, seed uint64) sim.Config {
	cfg := sim.Default(w)
	applyScale(&cfg, scale, seed)
	return cfg
}

// ConfigForMix builds the standard functional run of a multi-programmed
// mix, scaled exactly like ConfigFor — a mix job and a workload job of the
// same (scale, seed) run the same warmup/measure split. The mix is sized
// for the configured core count (a one-core mix is cloned), and the
// config's Workload carries the mix name for labeling only.
func ConfigForMix(m workloads.Mix, scale float64, seed uint64) (sim.Config, error) {
	cfg := sim.Default(workloads.Workload{Name: m.Name})
	cores, err := m.ForCores(cfg.Hier.Cores)
	if err != nil {
		return sim.Config{}, err
	}
	cfg.Cores = cores
	applyScale(&cfg, scale, seed)
	return cfg, nil
}

// applyScale sets the seed and the scaled warmup/measure split shared by
// ConfigFor and ConfigForMix.
func applyScale(cfg *sim.Config, scale float64, seed uint64) {
	cfg.Seed = seed
	cfg.Measure = int(float64(sim.DefaultScale) * scale)
	if cfg.Measure < 1000 {
		cfg.Measure = 1000
	}
	cfg.Warmup = cfg.Measure
}

// baseConfig builds the standard functional run of a workload at the
// runner's scale.
func (r *Runner) baseConfig(w workloads.Workload) sim.Config {
	return ConfigFor(w, r.opts.Scale, r.opts.Seed)
}

// timingConfig builds the standard timing run (SMARTS-like windows).
func (r *Runner) timingConfig(w workloads.Workload) sim.Config {
	cfg := r.baseConfig(w)
	cfg.Timing = true
	cfg.Windows = 20
	return cfg
}

func cacheKey(cfg sim.Config) string { return cfg.Signature() }

// Run simulates cfg, returning a cached result when an identical
// configuration already ran.
func (r *Runner) Run(cfg sim.Config) sim.Result {
	key := cacheKey(cfg)
	if res, ok := r.cachedRun(key); ok {
		return res
	}

	r.sem <- struct{}{}
	defer func() { <-r.sem }()

	// Double-check after acquiring a slot.
	if res, ok := r.cachedRun(key); ok {
		return res
	}

	r.opts.Log("run %s", key)
	res := r.simulate(key, cfg)
	r.storeResult(key, res)
	return res
}

// CachedResult returns cfg's cached result, refreshing its recency on a
// hit. Together with AcquireSystem/ReleaseSystem/StoreResult it decomposes
// Run into its pool/cache transitions, so the sweep engine's sequenced
// model-checking mode (internal/mc) drives exactly the code Run runs.
func (r *Runner) CachedResult(cfg sim.Config) (sim.Result, bool) {
	return r.cachedRun(cacheKey(cfg))
}

// StoreResult records cfg's finished result in the bounded result cache
// (the step Run performs after simulating).
func (r *Runner) StoreResult(cfg sim.Config, res sim.Result) {
	r.storeResult(cacheKey(cfg), res)
}

func (r *Runner) storeResult(key string, res sim.Result) {
	r.mu.Lock()
	r.useTick++
	r.cache[key] = &cachedResult{res: res, lastUse: r.useTick}
	evictOldest(r.cache, r.opts.MaxResults)
	r.mu.Unlock()
}

// AcquireSystem claims cfg's pooled system — the pool-take transition of
// simulate. A claimed retained system is Reset in place; a pool miss (or a
// runner without KeepSystems) builds fresh. Pair every call with
// ReleaseSystem after the system's Run.
func (r *Runner) AcquireSystem(cfg sim.Config) *sim.System {
	return r.acquireSystem(cacheKey(cfg), cfg)
}

func (r *Runner) acquireSystem(key string, cfg sim.Config) *sim.System {
	var sys *sim.System
	if r.opts.KeepSystems {
		r.mu.Lock()
		if e := r.systems[key]; e != nil {
			sys = e.sys
			delete(r.systems, key) // claim: concurrent runs of the same key build fresh
		}
		r.mu.Unlock()
	}
	if sys == nil {
		cfg.Compile = cfg.Compile || r.opts.Compile
		return sim.NewSystem(cfg)
	}
	sys.Reset()
	if r.opts.Compile {
		// Hot-grid auto-compile: a pooled system being re-acquired is about
		// to run the same configuration again — the exact case where paying
		// one stream materialization buys every subsequent replay. A no-op
		// when the system already compiled.
		sys.CompileStreams(cfg.Warmup + cfg.Measure)
	}
	return sys
}

// ReleaseSystem returns a claimed system to the pool — the pool-put
// transition of simulate, including the MaxSystems LRU eviction. Without
// KeepSystems the system is simply dropped.
func (r *Runner) ReleaseSystem(cfg sim.Config, sys *sim.System) {
	r.releaseSystem(cacheKey(cfg), sys)
}

func (r *Runner) releaseSystem(key string, sys *sim.System) {
	if !r.opts.KeepSystems {
		return
	}
	r.mu.Lock()
	r.useTick++
	r.systems[key] = &retainedSystem{sys: sys, lastUse: r.useTick}
	evictOldest(r.systems, r.opts.MaxSystems)
	r.mu.Unlock()
}

// CheckPool verifies the system pool's structural invariants: occupancy
// within the MaxSystems bound and no nil retained system. The sweep
// schedule explorer asserts it after every explored schedule — including
// cancelled ones — to prove scheduling can never corrupt the pool.
func (r *Runner) CheckPool() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if max := r.opts.MaxSystems; max > 0 && len(r.systems) > max {
		return fmt.Errorf("experiments: system pool holds %d systems, bound is %d", len(r.systems), max)
	}
	for key, e := range r.systems {
		if e == nil || e.sys == nil {
			return fmt.Errorf("experiments: system pool retains nil system under key %q", key)
		}
	}
	return nil
}

// cachedRun looks a result up, refreshing its recency on a hit.
func (r *Runner) cachedRun(key string) (sim.Result, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.cache[key]
	if !ok {
		return sim.Result{}, false
	}
	r.useTick++
	e.lastUse = r.useTick
	return e.res, true
}

// CachedResults reports the result cache's occupancy (bounded by
// MaxResults).
func (r *Runner) CachedResults() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.cache)
}

// simulate executes cfg, reusing (and retaining) a built system for the key
// when KeepSystems is on. A retained system is reset in place before the
// run, which produces bit-identical results to a fresh build. When
// MaxSystems bounds the pool, putting a system back evicts the
// least-recently-used entry beyond the bound.
func (r *Runner) simulate(key string, cfg sim.Config) sim.Result {
	if !r.opts.KeepSystems {
		cfg.Compile = cfg.Compile || r.opts.Compile
		return sim.Run(cfg)
	}
	sys := r.acquireSystem(key, cfg)
	res := sys.Run()
	r.releaseSystem(key, sys)
	return res
}

// RetainedSystems reports how many built systems the runner currently
// retains (KeepSystems pool occupancy; tests assert the MaxSystems bound
// through it).
func (r *Runner) RetainedSystems() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.systems)
}

// RunAll simulates configurations concurrently, preserving order.
func (r *Runner) RunAll(cfgs []sim.Config) []sim.Result {
	out := make([]sim.Result, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		i, cfg := i, cfg
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = r.Run(cfg)
		}()
	}
	wg.Wait()
	return out
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(r *Runner) *report.Doc
}

var registry = map[string]Experiment{}

func register(e Experiment) { registry[e.ID] = e }

// All returns every experiment in presentation order.
func All() []Experiment {
	order := map[string]int{
		"table1": 0, "table2": 1, "table3": 2,
		"fig4": 3, "fig5": 4, "fig6": 5, "fig7": 6, "fig8": 7,
		"fig9": 8, "fig10": 9, "fig11": 10, "space": 11, "ablations": 12, "stride": 13,
		"btb": 14, "mixes": 15, "timing": 16,
	}
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		oi, oki := order[out[i].ID]
		oj, okj := order[out[j].ID]
		if oki && okj {
			return oi < oj
		}
		if oki != okj {
			return oki
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, error) {
	if e, ok := registry[id]; ok {
		return e, nil
	}
	ids := make([]string, 0, len(registry))
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, ids)
}
