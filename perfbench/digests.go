package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
)

// digestSlots is how many simulator seeds the checked workloads fold their
// seed onto; digests.json records one output digest per slot.
const digestSlots = 16

// simSeed maps a workload seed to the simulator seed of its inputs, so
// every workload seed has a recorded digest to check against.
func simSeed(seed uint64) uint64 { return seed % digestSlots }

//go:embed digests.json
var digestsJSON []byte

// digests maps a workload to its per-slot SHA-256 output digests.
type digests map[string][]string

// wantDigest returns the recorded digest for workload's output at seed.
func wantDigest(workload string, seed uint64) (string, error) {
	var d digests
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return "", fmt.Errorf("digests.json: %w", err)
	}
	slots := d[workload]
	if len(slots) != digestSlots {
		return "", fmt.Errorf("digests.json: %s has %d digests, want %d", workload, len(slots), digestSlots)
	}
	return slots[simSeed(seed)], nil
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// checkDigest reports whether data hashes to want.
func checkDigest(want string, data []byte) error {
	if got := digest(data); got != want {
		return fmt.Errorf("output digest %s, recorded %s", got[:16], want[:min(16, len(want))])
	}
	return nil
}

// recordDigests recomputes every slot's digest for the digest-checked
// workloads and writes the table as JSON. Run it only when the program's
// output is meant to change:
//
//	go run . -record > digests.json
func recordDigests(w io.Writer) error {
	d := digests{}
	for slot := uint64(0); slot < digestSlots; slot++ {
		js, err := figure9Output(slot)
		if err != nil {
			return err
		}
		d["grid-timing"] = append(d["grid-timing"], digest(js))
		sum, err := pv8Output(slot)
		if err != nil {
			return err
		}
		d["run-pv8"] = append(d["run-pv8"], digest(sum))
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
