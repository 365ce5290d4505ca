package main

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"
)

// The reference computation is a fixed piece of work that shares no code
// with the simulator. Every untraced run times it between operations and
// divides the operation's time by it, so op_p25_ref reads the same on a
// host that co-tenants slow down as on a quiet one, while a change to the
// simulator still moves it in full.
//
// Co-tenants slow the simulator's branchy, table-heavy code by up to 2.5x
// for minutes at a time. Tight ALU loops and random-access loops over
// 4-128 MB arrays slowed far less and did not follow the simulator's
// swings (correlation 0.0-0.25 per op on a 2-vCPU host), so the reference
// mimics the simulator's kind of work: a two-level set-associative cache
// model with LRU replacement and a directory map, plus a JSON round trip,
// a compression pass and a sort over a seeded document. A slowdown can
// also hit one CPU alone. That doubles the time of an operation that uses
// both CPUs, and leaves one that runs on a single goroutine alone, so the
// reference runs as many copies at once as the operation has goroutines
// at work (bench.refCopies).

// refDoc is the document the reference decodes, re-encodes and
// compresses.
var refDoc = func() []byte {
	type record struct {
		Name   string             `json:"name"`
		Counts []int              `json:"counts"`
		Stats  map[string]float64 `json:"stats"`
		Owner  string             `json:"owner"`
	}
	recs := make([]record, 1000)
	x := uint64(7)
	for i := range recs {
		x = xorshift(x)
		r := record{Name: fmt.Sprintf("rec-%d-%x", i, x), Stats: map[string]float64{}, Owner: fmt.Sprint(x % 1234567)}
		for j := 0; j < 8; j++ {
			r.Counts = append(r.Counts, int(x>>uint(j*4))&0xffff)
			r.Stats[fmt.Sprint("k", j, x%97)] = float64(x%1000) / 7
		}
		recs[i] = r
	}
	doc, err := json.Marshal(recs)
	if err != nil {
		panic(err)
	}
	return doc
}()

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// refLine is one way of a reference cache set.
type refLine struct {
	tag uint64
	lru uint32
}

// refCache is a set-associative cache with LRU replacement.
type refCache struct {
	sets  [][]refLine
	mask  uint64
	clock uint32
	hits  int
}

func newRefCache(sets, ways int) *refCache {
	c := &refCache{sets: make([][]refLine, sets), mask: uint64(sets - 1)}
	for i := range c.sets {
		c.sets[i] = make([]refLine, ways)
	}
	return c
}

// access looks a block address up and fills it on a miss.
func (c *refCache) access(a uint64) bool {
	c.clock++
	set := c.sets[a&c.mask]
	tag := a >> 6
	victim := 0
	for i := range set {
		if set[i].tag == tag {
			set[i].lru = c.clock
			c.hits++
			return true
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = refLine{tag, c.clock}
	return false
}

// refAccesses is the reference cache model's accesses per copy; with the
// document pass, one copy takes about 0.08 s on a 2-vCPU host.
const refAccesses = 300_000

// refDirEntries bounds the reference directory.
const refDirEntries = 1 << 13

// reference runs copies of the reference computation at once and returns
// the time until the last one finishes.
func reference(copies int) time.Duration {
	sums := make([]uint64, copies)
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[i] = referenceCopy()
		}()
	}
	wg.Wait()
	d := time.Since(t0)
	for _, v := range sums {
		sink += v
	}
	return d
}

// referenceCopy runs the reference computation once and returns a
// checksum of its results. Its caches and directory start empty on every
// call, so every call does the same work.
func referenceCopy() uint64 {
	l1, l2 := newRefCache(64, 8), newRefCache(4096, 16)
	dir := map[uint64]uint8{}
	x, base := uint64(12345), uint64(0)
	for i := 0; i < refAccesses; i++ {
		x = xorshift(x)
		var a uint64
		switch x % 4 {
		case 0: // a jump to a new region
			base = (x >> 8) % (1 << 22)
			a = base
		case 1, 2: // a nearby block
			a = base + (x>>20)%64
		default: // a small hot set
			a = (x >> 12) % (1 << 16)
		}
		if !l1.access(a) && !l2.access(a) {
			if len(dir) == refDirEntries {
				clear(dir)
			}
			dir[a>>4] |= uint8(1 << (i & 1))
		}
	}

	var recs []map[string]interface{}
	if err := json.Unmarshal(refDoc, &recs); err != nil {
		panic(err)
	}
	out, err := json.Marshal(recs)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, 5)
	if err != nil {
		panic(err)
	}
	w.Write(out) // writes into a bytes.Buffer do not fail
	w.Close()
	keys := make([]string, len(recs))
	for i, r := range recs {
		keys[i] = fmt.Sprint(r["owner"], r["name"])
	}
	sort.Strings(keys)

	return uint64(l1.hits+l2.hits+len(dir)+buf.Len()) + uint64(len(keys[0]))
}
