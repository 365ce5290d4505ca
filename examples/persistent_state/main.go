// Semi-persistent predictor state — the paper's §2.3: "because virtualized
// tables live in the memory space it may be possible to make them
// semi-persistent, thus having subsequent invocations of an application
// benefit from previously collected predictor metadata".
//
// A first "invocation" of the workload trains the virtualized SMS PHT and
// saves each core's PVTable image (what an OS could keep, or a VM
// migration could ship, §2.3). A second invocation then starts either cold
// or from the saved images, and the example compares how quickly the
// prefetcher becomes useful: the warm start predicts from the first
// trigger, skipping the training period the paper warns is lost on
// migration with conventional dedicated tables.
//
// Run with: go run ./examples/persistent_state
package main

import (
	"bytes"
	"fmt"

	"pvsim/internal/sim"
	"pvsim/internal/sms"
	"pvsim/internal/workloads"
)

// smsAt reaches below the generic pv.Instance contract to the SMS adapter
// of one core — examples that save/load PVTable images need the family's
// concrete types.
func smsAt(sys *sim.System, c int) *sms.Instance {
	return sys.Predictor(c).(*sms.Instance)
}

const (
	cores = 4
	train = 200_000 // accesses per core in the first invocation
	run   = 60_000  // early-window accesses measured in the second
)

func main() {
	w, err := workloads.ByName("Qry17")
	if err != nil {
		panic(err)
	}
	cfg := sim.Default(w)
	cfg.Prefetch = sim.PV8

	// First invocation: train, flush PVCaches, snapshot the PVTables.
	first := sim.NewSystem(cfg)
	first.StepAllN(train)
	images := make([]bytes.Buffer, cores)
	for c := 0; c < cores; c++ {
		smsAt(first, c).VPHT().Proxy().Flush() // dirty sets must reach memory first
		if err := smsAt(first, c).VPHT().Table().Save(&images[c]); err != nil {
			panic(err)
		}
	}
	fmt.Printf("first invocation trained %d accesses/core; saved %d KB of PVTable images\n\n",
		train, totalLen(images)/1024)

	fmt.Printf("%-12s %18s %18s %14s\n", "2nd start", "covered misses", "PHT lookup hits", "hit rate")
	for _, warm := range []bool{false, true} {
		sys := sim.NewSystem(cfg)
		if warm {
			for c := 0; c < cores; c++ {
				if err := smsAt(sys, c).VPHT().Table().Load(bytes.NewReader(images[c].Bytes())); err != nil {
					panic(err)
				}
			}
		}
		sys.StepAllN(run)
		var covered, trig, hits uint64
		for c := 0; c < cores; c++ {
			covered += sys.Hier.Stats.Core[c].L1DPrefetchHits
			trig += smsAt(sys, c).Engine().Stats.Triggers
			hits += smsAt(sys, c).Engine().Stats.PHTLookupHits
		}
		name := "cold"
		if warm {
			name = "from image"
		}
		fmt.Printf("%-12s %18d %18d %13.1f%%\n", name, covered, hits, float64(hits)/float64(trig)*100)
	}

	fmt.Println("\nThe warm start covers misses from the first window — the training period a")
	fmt.Println("dedicated on-chip table would repeat after every process restart or migration.")
}

func totalLen(bufs []bytes.Buffer) int {
	n := 0
	for i := range bufs {
		n += bufs[i].Len()
	}
	return n
}
