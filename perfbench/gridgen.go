package main

import (
	"fmt"
	"math/rand/v2"

	"pvsim/internal/sweep"
	"pvsim/internal/workloads"
)

// The serve workloads submit small grids crossing 1-2 of these specs with
// 1-2 of the eight workloads under one generator seed, at serveScale.
var serveSpecs = []string{"1K-11a", "PV-8", "PV-16", "16-11a", "stride-PV-8"}

const (
	serveScale = 0.05
	// The sequence is built in blocks of serveBlock grids. Each block
	// holds every shape (1-2 specs x 1-2 workloads) equally often, one
	// grid that resubmits an earlier grid unchanged (the service answers
	// it from its sweep table), and serveReuse grids that take an earlier
	// grid's seed and workloads with fresh specs (their baselines, and any
	// job whose spec repeats, are cached results). The other grids are
	// new. Fixed shares keep the work per grid and the fraction of
	// repeated cells the same for every seed and however many grids a run
	// gets through.
	serveBlock = 20
	serveReuse = 4
)

// serveGrids returns the first n grids of the sequence seeded by seed.
func serveGrids(seed uint64, n int) []sweep.Grid {
	rng := rand.New(rand.NewPCG(seed, 0x7076_7369_6d)) // "pvsim"
	names := workloads.Names()
	grids := make([]sweep.Grid, n)
	var shapes, kinds []int
	for i := range grids {
		if i%serveBlock == 0 {
			shapes, kinds = rng.Perm(serveBlock), rng.Perm(serveBlock)
		}
		shape, kind := shapes[i%serveBlock]%4, kinds[i%serveBlock]
		g := sweep.Grid{
			Specs:     pick(rng, serveSpecs, 1+shape/2),
			Workloads: pick(rng, names, 1+shape%2),
			Seeds:     []uint64{rng.Uint64N(1 << 32)},
			Scale:     serveScale,
		}
		if i > 0 {
			switch prev := grids[rng.IntN(i)]; {
			case kind == 0:
				g = prev
			case kind <= serveReuse:
				g.Workloads, g.Seeds = prev.Workloads, prev.Seeds
			}
		}
		grids[i] = g
	}
	return grids
}

// pick draws k distinct elements of xs in random order.
func pick(rng *rand.Rand, xs []string, k int) []string {
	perm := rng.Perm(len(xs))
	out := make([]string, k)
	for i := range out {
		out[i] = xs[perm[i]]
	}
	return out
}

// repeatCellFrac is the share of the grids' simulation cells — one per
// job and one per matched baseline — that an earlier grid in the sequence
// already contained. Those are the simulations a result cache can skip.
func repeatCellFrac(grids []sweep.Grid) float64 {
	seen := map[string]bool{}
	total, repeats := 0, 0
	visit := func(key string) {
		total++
		if seen[key] {
			repeats++
		}
		seen[key] = true
	}
	for _, g := range grids {
		for _, seed := range g.Seeds {
			for _, w := range g.Workloads {
				visit(fmt.Sprintf("%d/%s/none", seed, w))
				for _, s := range g.Specs {
					visit(fmt.Sprintf("%d/%s/%s", seed, w, s))
				}
			}
		}
	}
	return ratio(float64(repeats), float64(total))
}
