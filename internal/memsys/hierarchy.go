package memsys

import "fmt"

// Config describes the whole hierarchy. DefaultConfig reproduces Table 1.
type Config struct {
	Cores int
	L1I   CacheConfig
	L1D   CacheConfig
	L2    CacheConfig

	// MemLatency is the round-trip main-memory latency in cycles.
	MemLatency uint64

	// L1Latency is the L1 hit latency in cycles.
	L1Latency uint64

	// NextLineIPrefetch enables the baseline next-line instruction
	// prefetcher every configuration in the paper includes.
	NextLineIPrefetch bool

	// PVRanges lists the reserved physical address ranges that hold
	// PVTables; traffic to them is classified ClassPV.
	PVRanges []AddrRange

	// OnChipOnlyPV enables the §2.2 design option: dirty PV lines evicted
	// from the L2 are dropped instead of written off-chip, so predictor
	// entries that are not hot enough to stay on chip are lost.
	OnChipOnlyPV bool

	// L2Banks is the number of independently-addressed L2 banks (Table 1:
	// 8). Banking only matters when ModelBankContention is set.
	L2Banks int

	// ModelBankContention serializes requests to the same L2 bank: a
	// request arriving while its bank is busy waits for the bank to free.
	// Only meaningful in timing runs, where the hierarchy clock advances
	// via Tick; functional runs leave it off.
	ModelBankContention bool

	// BankServiceCycles is how long one request occupies a bank.
	BankServiceCycles uint64

	// PrioritizeAppOverPV implements the arbitration §2.2 discusses but
	// the paper leaves unimplemented ("we did not prioritize application
	// requests over PV requests"): PVProxy requests yield an extra service
	// slot whenever their bank is busy, modeling the app side winning
	// arbitration.
	PrioritizeAppOverPV bool

	// InclusiveL2 enforces inclusion: a block evicted from the L2 is
	// back-invalidated in every L1 that holds it. The paper's Piranha-based
	// L2 is non-inclusive (the default here); the knob exists because
	// inclusion shortens SMS generations (back-invalidations end them) and
	// is the common commercial design point.
	InclusiveL2 bool
}

// DefaultConfig returns the Table 1 baseline: four 4GHz cores, 64KB 4-way
// split L1s with 64B blocks and 2-cycle latency, an 8MB 16-way shared L2
// with 6/12-cycle tag/data latency, and 400-cycle main memory.
func DefaultConfig() Config {
	return Config{
		Cores: 4,
		L1I: CacheConfig{
			Name: "L1I", SizeBytes: 64 << 10, Ways: 4, BlockBytes: 64,
			TagLatency: 2, DataLatency: 2,
		},
		L1D: CacheConfig{
			Name: "L1D", SizeBytes: 64 << 10, Ways: 4, BlockBytes: 64,
			TagLatency: 2, DataLatency: 2,
		},
		L2: CacheConfig{
			Name: "UL2", SizeBytes: 8 << 20, Ways: 16, BlockBytes: 64,
			TagLatency: 6, DataLatency: 12,
		},
		MemLatency:        400,
		L1Latency:         2,
		NextLineIPrefetch: true,
		L2Banks:           8,
		BankServiceCycles: 2,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("hierarchy: %d cores", c.Cores)
	}
	for _, cc := range []CacheConfig{c.L1I, c.L1D, c.L2} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	if c.L1D.BlockBytes != c.L2.BlockBytes {
		return fmt.Errorf("hierarchy: L1D block %dB != L2 block %dB", c.L1D.BlockBytes, c.L2.BlockBytes)
	}
	if c.ModelBankContention && c.L2Banks <= 0 {
		return fmt.Errorf("hierarchy: bank contention enabled with %d banks", c.L2Banks)
	}
	return nil
}

// CoreStats aggregates per-core L1 events.
type CoreStats struct {
	L1DReads        uint64
	L1DWrites       uint64
	L1DReadMisses   uint64
	L1DWriteMisses  uint64
	L1DPrefetchHits uint64 // demand reads served by a prefetched line (covered misses)
	L1IFetches      uint64
	L1IMisses       uint64
	PrefetchIssued  uint64 // SMS prefetch requests sent below the L1
	PrefetchUnused  uint64 // prefetched lines evicted/invalidated before use
	Invalidations   uint64 // L1D lines invalidated by remote stores
}

// Stats aggregates hierarchy-wide traffic.
type Stats struct {
	Core []CoreStats

	L2Requests [NumKinds]uint64
	L2Hits     [NumKinds]uint64
	L2Misses   [NumKinds]uint64

	// L1ToL2Writebacks counts dirty L1 victims written into the L2.
	L1ToL2Writebacks uint64

	// OffChipReads / OffChipWrites are L2 misses and dirty L2 victims,
	// split by address class (application vs PVTable data) — the Figure 7/8
	// "off-chip bandwidth" components.
	OffChipReads  [NumClasses]uint64
	OffChipWrites [NumClasses]uint64

	// PVDroppedWritebacks counts dirty PV lines discarded at the L2 edge
	// when OnChipOnlyPV is enabled.
	PVDroppedWritebacks uint64

	// BankWaitCycles accumulates cycles requests spent waiting for a busy
	// L2 bank, split by requester kind (bank contention model only).
	BankWaitCycles [NumKinds]uint64
}

// L2RequestsTotal sums L2 requests across kinds.
func (s *Stats) L2RequestsTotal() uint64 {
	var t uint64
	for _, v := range s.L2Requests {
		t += v
	}
	return t
}

// L2MissesTotal sums L2 misses across kinds.
func (s *Stats) L2MissesTotal() uint64 {
	var t uint64
	for _, v := range s.L2Misses {
		t += v
	}
	return t
}

// OffChipTotal returns total off-chip transactions (reads + writes).
func (s *Stats) OffChipTotal() uint64 {
	return s.OffChipReads[ClassApp] + s.OffChipReads[ClassPV] +
		s.OffChipWrites[ClassApp] + s.OffChipWrites[ClassPV]
}

// Result describes one access's outcome.
type Result struct {
	Level   Level  // level that served the request
	Latency uint64 // cycles from issue to data delivery
	// CoveredMiss is set for demand reads that would have missed but were
	// served by a line a prefetch brought in.
	CoveredMiss bool
}

// Hierarchy wires per-core L1s, the shared L2 and main memory together.
// Coherence needs no directory state: a store finds the sharers it must
// invalidate by probing the other cores' L1Ds.
type Hierarchy struct {
	cfg Config
	l1i []*Cache
	l1d []*Cache
	l2  *Cache

	// evictHooks are caller-registered per-core L1D eviction observers
	// (SMS uses them to end spatial-region generations).
	evictHooks []func(addr Addr, cause EvictCause)

	// pvDropHook observes PV lines whose dirty data is dropped at the L2
	// edge under OnChipOnlyPV, so the PVTable backing store can forget them.
	pvDropHook func(addr Addr)

	// now is the hierarchy clock for bank-contention modeling (Tick).
	now uint64
	// bankFree[b] is the cycle at which L2 bank b next accepts a request.
	bankFree []uint64

	lastIBlock []Addr // per-core last instruction block, for next-line prefetch

	Stats Stats
}

// New builds a hierarchy; it panics on invalid configuration.
func New(cfg Config) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := &Hierarchy{
		cfg:        cfg,
		l1i:        make([]*Cache, cfg.Cores),
		l1d:        make([]*Cache, cfg.Cores),
		l2:         NewCache(cfg.L2),
		evictHooks: make([]func(Addr, EvictCause), cfg.Cores),
		lastIBlock: make([]Addr, cfg.Cores),
	}
	if cfg.L2Banks > 0 {
		h.bankFree = make([]uint64, cfg.L2Banks)
	}
	h.Stats.Core = make([]CoreStats, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		i := i
		ic := cfg.L1I
		ic.Name = fmt.Sprintf("L1I.%d", i)
		dc := cfg.L1D
		dc.Name = fmt.Sprintf("L1D.%d", i)
		h.l1i[i] = NewCache(ic)
		h.l1d[i] = NewCache(dc)
		h.l1d[i].SetEvictHook(func(addr Addr, cause EvictCause) {
			if hook := h.evictHooks[i]; hook != nil {
				hook(addr, cause)
			}
		})
	}
	return h
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// ResetStats zeroes all statistics in place, reusing the per-core slice so
// post-warmup resets do not allocate.
func (h *Hierarchy) ResetStats() {
	core := h.Stats.Core
	for i := range core {
		core[i] = CoreStats{}
	}
	h.Stats = Stats{Core: core}
}

// Reset returns the hierarchy to its post-construction state in place:
// caches emptied, bank arbitration and the clock rewound, statistics zeroed.
// Registered hooks are kept.
func (h *Hierarchy) Reset() {
	for i := 0; i < h.cfg.Cores; i++ {
		h.l1i[i].Reset()
		h.l1d[i].Reset()
		h.lastIBlock[i] = 0
	}
	h.l2.Reset()
	h.now = 0
	for i := range h.bankFree {
		h.bankFree[i] = 0
	}
	h.ResetStats()
}

// L1D exposes a core's L1 data cache (tests and the prefetcher use it).
func (h *Hierarchy) L1D(core int) *Cache { return h.l1d[core] }

// L1I exposes a core's L1 instruction cache.
func (h *Hierarchy) L1I(core int) *Cache { return h.l1i[core] }

// L2 exposes the shared cache.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// SetL1DEvictHook registers an observer for every block leaving the given
// core's L1D (by replacement or invalidation).
func (h *Hierarchy) SetL1DEvictHook(core int, fn func(addr Addr, cause EvictCause)) {
	h.evictHooks[core] = fn
}

// SetPVDropHook registers an observer for dirty PV lines dropped at the L2
// edge under OnChipOnlyPV.
func (h *Hierarchy) SetPVDropHook(fn func(addr Addr)) { h.pvDropHook = fn }

// ClassOf classifies an address as application or PV-metadata.
func (h *Hierarchy) ClassOf(a Addr) Class {
	for _, r := range h.cfg.PVRanges {
		if r.Contains(a) {
			return ClassPV
		}
	}
	return ClassApp
}

// BlockBytes returns the line size shared by L1D and L2.
func (h *Hierarchy) BlockBytes() int { return h.cfg.L1D.BlockBytes }

// Tick advances the hierarchy clock; the timing runner calls it before each
// access so the bank-contention model can relate request arrivals to bank
// busy windows.
func (h *Hierarchy) Tick(now uint64) {
	if now > h.now {
		h.now = now
	}
}

// Now returns the hierarchy clock (tests use it).
func (h *Hierarchy) Now() uint64 { return h.now }

// bankWait models arbitration for the L2 bank serving block a: the request
// waits until the bank frees, PV requests losing one extra service slot to
// application requests when PrioritizeAppOverPV is set (§2.2's arbitration
// option). It returns the wait in cycles and books the bank.
func (h *Hierarchy) bankWait(a Addr, kind AccessKind) uint64 {
	if !h.cfg.ModelBankContention {
		return 0
	}
	bank := int(uint64(a)>>6) % len(h.bankFree)
	start := h.now
	if free := h.bankFree[bank]; free > start {
		start = free
		if h.cfg.PrioritizeAppOverPV && kind.IsPV() {
			start += h.cfg.BankServiceCycles // app request wins the slot
		}
	}
	h.bankFree[bank] = start + h.cfg.BankServiceCycles
	wait := start - h.now
	h.Stats.BankWaitCycles[kind] += wait
	return wait
}

// l2Access sends one request of the given kind to the shared L2, filling
// from memory on a miss. It returns the serving level and latency below the
// L1 (the L1 component is added by callers).
func (h *Hierarchy) l2Access(a Addr, kind AccessKind, fillPrefetched bool) (Level, uint64) {
	h.Stats.L2Requests[kind]++
	wait := h.bankWait(a, kind)
	if h.l2.Lookup(a, false).Hit {
		h.Stats.L2Hits[kind]++
		return LevelL2, wait + h.cfg.L2.DataLatency
	}
	h.Stats.L2Misses[kind]++
	h.Stats.OffChipReads[h.ClassOf(a)]++
	h.fillL2(a, false, fillPrefetched)
	return LevelMem, wait + h.cfg.L2.TagLatency + h.cfg.MemLatency
}

// fillL2 installs a block into the L2 and disposes of the victim.
func (h *Hierarchy) fillL2(a Addr, dirty, prefetched bool) {
	v := h.l2.Fill(a, dirty, prefetched)
	if !v.Valid {
		return
	}
	if h.cfg.InclusiveL2 {
		h.backInvalidate(v.Addr)
	}
	if !v.Dirty {
		return
	}
	cls := h.ClassOf(v.Addr)
	if cls == ClassPV && h.cfg.OnChipOnlyPV {
		h.Stats.PVDroppedWritebacks++
		if h.pvDropHook != nil {
			h.pvDropHook(v.Addr)
		}
		return
	}
	h.Stats.OffChipWrites[cls]++
}

// writebackToL2 handles a dirty L1 victim: it is installed dirty in the L2
// (allocate-on-writeback) without generating an off-chip read.
func (h *Hierarchy) writebackToL2(a Addr) {
	h.Stats.L1ToL2Writebacks++
	h.fillL2(a, true, false)
}

// backInvalidate removes an L2 victim from every L1 (inclusion). Dirty L1
// copies are lost to the L2 (it just evicted the block), so they are
// written off-chip directly.
func (h *Hierarchy) backInvalidate(block Addr) {
	for c := 0; c < h.cfg.Cores; c++ {
		if v := h.l1d[c].Invalidate(block); v.Valid {
			h.Stats.Core[c].Invalidations++
			if v.UnusedPrefetch {
				h.Stats.Core[c].PrefetchUnused++
			}
			if v.Dirty {
				h.Stats.OffChipWrites[h.ClassOf(v.Addr)]++
			}
		}
		h.l1i[c].Invalidate(block)
	}
}

// sharers returns the mask of cores other than core whose L1D holds block,
// found by probing each peer L1D in core order.
func (h *Hierarchy) sharers(core int, block Addr) uint32 {
	var mask uint32
	for c, l1 := range h.l1d {
		if c != core && l1.Contains(block) {
			mask |= 1 << uint(c)
		}
	}
	return mask
}

// invalidateSharers removes the block from every other core's L1D, firing
// their eviction hooks (which end SMS generations). The sharer mask is taken
// before the first invalidation, so hooks that move blocks in other L1Ds do
// not change which cores are visited.
func (h *Hierarchy) invalidateSharers(core int, block Addr) {
	mask := h.sharers(core, block)
	for other := 0; mask != 0; other++ {
		bit := uint32(1) << uint(other)
		if mask&bit == 0 {
			continue
		}
		mask &^= bit
		v := h.l1d[other].Invalidate(block)
		if v.Valid {
			h.Stats.Core[other].Invalidations++
			if v.UnusedPrefetch {
				h.Stats.Core[other].PrefetchUnused++
			}
			if v.Dirty {
				h.writebackToL2(v.Addr)
			}
		}
	}
}

// Data performs a demand load or store by the given core.
func (h *Hierarchy) Data(core int, a Addr, write bool) Result {
	cs := &h.Stats.Core[core]
	l1 := h.l1d[core]
	block := l1.BlockAddr(a)
	if write {
		cs.L1DWrites++
		h.invalidateSharers(core, block)
	} else {
		cs.L1DReads++
	}

	if r := l1.Lookup(a, write); r.Hit {
		res := Result{Level: LevelL1, Latency: h.cfg.L1Latency}
		if r.FirstUseOfPF && !write {
			cs.L1DPrefetchHits++
			res.CoveredMiss = true
		}
		return res
	}

	if write {
		cs.L1DWriteMisses++
	} else {
		cs.L1DReadMisses++
	}
	kind := Load
	if write {
		kind = Store
	}
	lvl, lat := h.l2Access(block, kind, false)
	h.fillL1D(core, block, write, false)
	return Result{Level: lvl, Latency: h.cfg.L1Latency + lat}
}

// fillL1D installs a block in the core's L1D, handling the victim.
func (h *Hierarchy) fillL1D(core int, block Addr, dirty, prefetched bool) {
	v := h.l1d[core].Fill(block, dirty, prefetched)
	if v.Valid {
		if v.UnusedPrefetch {
			h.Stats.Core[core].PrefetchUnused++
		}
		if v.Dirty {
			h.writebackToL2(v.Addr)
		}
	}
}

// Fetch performs an instruction fetch, driving the next-line instruction
// prefetcher if enabled.
func (h *Hierarchy) Fetch(core int, pc Addr) Result {
	cs := &h.Stats.Core[core]
	cs.L1IFetches++
	l1 := h.l1i[core]
	block := l1.BlockAddr(pc)

	res := Result{Level: LevelL1, Latency: h.cfg.L1Latency}
	if !l1.Lookup(pc, false).Hit {
		cs.L1IMisses++
		lvl, lat := h.l2Access(block, IFetch, false)
		res = Result{Level: lvl, Latency: h.cfg.L1Latency + lat}
		l1.Fill(block, false, false)
	}

	if h.cfg.NextLineIPrefetch && block != h.lastIBlock[core] {
		h.lastIBlock[core] = block
		next := block + Addr(h.cfg.L1I.BlockBytes)
		if !l1.Contains(next) {
			h.l2Access(next, IPrefetch, false)
			l1.Fill(next, false, true)
		}
	}
	return res
}

// Prefetch issues an SMS data prefetch into the core's L1D via the L2, as
// §4.1 describes ("prefetching is performed directly into the L1 cache").
// It reports false when the block is already resident and no request was
// sent.
func (h *Hierarchy) Prefetch(core int, a Addr) (Result, bool) {
	l1 := h.l1d[core]
	block := l1.BlockAddr(a)
	if l1.Contains(block) {
		return Result{Level: LevelL1, Latency: 0}, false
	}
	h.Stats.Core[core].PrefetchIssued++
	lvl, lat := h.l2Access(block, DPrefetch, true)
	h.fillL1D(core, block, false, true)
	return Result{Level: lvl, Latency: lat}, true
}

// PVRead is a PVProxy metadata read injected on the backside of the L1: it
// goes straight to the L2 and fills the L2 from memory on a miss.
func (h *Hierarchy) PVRead(a Addr) Result {
	lvl, lat := h.l2Access(a, PVFetch, false)
	return Result{Level: lvl, Latency: lat}
}

// PVWriteback writes a dirty predictor set back to the L2. The full block is
// overwritten, so no allocate-read is sent off-chip on an L2 miss.
func (h *Hierarchy) PVWriteback(a Addr) Result {
	h.Stats.L2Requests[PVWriteback]++
	if h.l2.Contains(a) {
		h.Stats.L2Hits[PVWriteback]++
	} else {
		h.Stats.L2Misses[PVWriteback]++
	}
	h.fillL2(a, true, false)
	return Result{Level: LevelL2, Latency: h.cfg.L2.DataLatency}
}

// DirectorySize reports the number of distinct blocks resident in any L1D,
// the entries a full-map coherence directory would track. It walks every
// L1D, so it is for observers, not the access path.
func (h *Hierarchy) DirectorySize() int {
	blocks := make(map[Addr]bool)
	for _, l1 := range h.l1d {
		for i, ln := range l1.lines {
			if ln.valid {
				blocks[l1.compose(i/l1.ways, ln.tag)] = true
			}
		}
	}
	return len(blocks)
}
