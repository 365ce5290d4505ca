package memsys

import "testing"

// fourCoreConfig is smallConfig widened to four cores.
func fourCoreConfig() Config {
	cfg := smallConfig()
	cfg.Cores = 4
	return cfg
}

func TestDirectoryAddRemove(t *testing.T) {
	h := New(fourCoreConfig())
	for _, c := range []int{0, 1, 3} {
		h.Data(c, 0x1000, false)
	}
	if m := h.sharers(0, 0x1000); m != 0b1010 {
		t.Errorf("sharers(0) = %b, want 1010", m)
	}
	if m := h.sharers(1, 0x1000); m != 0b1001 {
		t.Errorf("sharers(1) = %b, want 1001", m)
	}
	if n := h.DirectorySize(); n != 1 {
		t.Errorf("DirectorySize = %d, want 1 (one block, three sharers)", n)
	}

	h.L1D(1).Invalidate(0x1000)
	if m := h.sharers(0, 0x1000); m != 0b1000 {
		t.Errorf("after invalidating core 1: sharers(0) = %b, want 1000", m)
	}

	h.L1D(0).Invalidate(0x1000)
	h.L1D(3).Invalidate(0x1000)
	if n := h.DirectorySize(); n != 0 {
		t.Errorf("DirectorySize = %d after every copy left, want 0", n)
	}
}

func TestDirectoryRemoveAbsent(t *testing.T) {
	h := New(fourCoreConfig())
	h.L1D(2).Invalidate(0x5000) // must not panic or create state
	h.Data(2, 0x5000, true)     // a store with no sharers invalidates nothing
	for c := range h.Stats.Core {
		if n := h.Stats.Core[c].Invalidations; n != 0 {
			t.Errorf("core %d: %d invalidations, want 0", c, n)
		}
	}
	if n := h.DirectorySize(); n != 1 {
		t.Errorf("DirectorySize = %d, want 1", n)
	}
}

func TestDirectoryIdempotentAdd(t *testing.T) {
	h := New(fourCoreConfig())
	h.Data(2, 0x40, false)
	h.Data(2, 0x40, false)
	h.Prefetch(2, 0x40)
	if n := h.DirectorySize(); n != 1 {
		t.Errorf("DirectorySize = %d, want 1", n)
	}
	if m := h.sharers(0, 0x40); m != 0b100 {
		t.Errorf("sharers(0) = %b, want 100", m)
	}
}

// mapDirectory is a full-map invalidation directory kept beside the L1Ds,
// the oracle for the hierarchy's probed sharers: fills add a sharer bit,
// every L1D eviction or invalidation clears one.
type mapDirectory struct {
	sharers map[Addr]uint32
}

func (d *mapDirectory) add(core int, block Addr) {
	d.sharers[block] |= 1 << uint(core)
}

func (d *mapDirectory) remove(core int, block Addr) {
	m, ok := d.sharers[block]
	if !ok {
		return
	}
	m &^= 1 << uint(core)
	if m == 0 {
		delete(d.sharers, block)
	} else {
		d.sharers[block] = m
	}
}

func (d *mapDirectory) others(core int, block Addr) uint32 {
	return d.sharers[block] &^ (1 << uint(core))
}

// TestProbedSharersMatchMapDirectory drives a 4-core hierarchy with a seeded
// mix of loads, stores and prefetches over a small shared address range.
// The inclusive L2 holds fewer blocks than the L1Ds together, so L2
// victims back-invalidate L1 copies too. Before every store the probed
// sharer mask must equal the map directory's, and DirectorySize must equal
// the map's length throughout.
func TestProbedSharersMatchMapDirectory(t *testing.T) {
	cfg := fourCoreConfig()
	cfg.L1D = CacheConfig{Name: "L1D", SizeBytes: 1 << 10, Ways: 2, BlockBytes: 64, TagLatency: 2, DataLatency: 2}
	cfg.L2 = CacheConfig{Name: "L2", SizeBytes: 2 << 10, Ways: 4, BlockBytes: 64, TagLatency: 6, DataLatency: 12}
	cfg.InclusiveL2 = true
	h := New(cfg)
	oracle := &mapDirectory{sharers: map[Addr]uint32{}}
	inStore, backInv := false, 0
	for c := 0; c < cfg.Cores; c++ {
		c := c
		h.SetL1DEvictHook(c, func(a Addr, cause EvictCause) {
			oracle.remove(c, a)
			if cause == CauseInvalidation && !inStore {
				backInv++
			}
		})
	}

	x := uint64(7)
	stores, shared := 0, 0
	for i := 0; i < 20000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		core := int(x >> 33 % 4)
		block := Addr(x>>40%96) << 6
		switch op := x >> 20 % 8; {
		case op < 4:
			h.Data(core, block, false)
			oracle.add(core, block)
		case op < 6:
			want := oracle.others(core, block)
			if got := h.sharers(core, block); got != want {
				t.Fatalf("op %d: store by core %d to %#x: probed sharers %04b, map directory %04b",
					i, core, block, got, want)
			}
			stores++
			if want != 0 {
				shared++
			}
			inStore = true
			h.Data(core, block, true)
			inStore = false
			oracle.add(core, block)
		default:
			h.Prefetch(core, block)
			oracle.add(core, block)
		}
		if got, want := h.DirectorySize(), len(oracle.sharers); got != want {
			t.Fatalf("op %d: DirectorySize = %d, map directory holds %d", i, got, want)
		}
	}
	if shared == 0 || backInv == 0 {
		t.Fatalf("stream too tame: %d of %d stores found sharers, %d back-invalidations outside stores",
			shared, stores, backInv)
	}
	t.Logf("%d stores (%d with sharers), %d back-invalidations outside stores", stores, shared, backInv)
}
