package trace

import (
	"bytes"
	"strings"
	"testing"
)

// TestReplayRejectsGarbage pins that only PVA2 files parse: a file too
// short for a header and a file of any other format are rejected, the
// latter with an error naming the magic it found.
func TestReplayRejectsGarbage(t *testing.T) {
	if _, err := ReadCompiled(bytes.NewReader([]byte("PV"))); err == nil {
		t.Error("truncated header accepted")
	}
	for _, magic := range []string{"PVA1", "XXXX"} {
		bad := append([]byte(magic), make([]byte, 24)...)
		_, err := ReadCompiled(bytes.NewReader(bad))
		if err == nil {
			t.Fatalf("magic %q accepted", magic)
		}
		if !strings.Contains(err.Error(), magic) {
			t.Errorf("magic %q rejected with %q, which does not name it", magic, err)
		}
	}
}

// TestTraceCompression pins that the compiled format's delta encoding
// stays compact on generator-shaped streams.
func TestTraceCompression(t *testing.T) {
	const n = 10_000
	ct, err := Compile(NewGenerator(testParams(), 7, 0), n, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	// Raw encoding would be 17B/access; the tagged deltas should do much
	// better.
	if perAccess := float64(ct.DataBytes()) / n; perAccess > 8 {
		t.Errorf("%.1f bytes/access; delta encoding ineffective", perAccess)
	}
}

func TestSummarize(t *testing.T) {
	const n = 30_000
	ct, err := Compile(NewGenerator(testParams(), 42, 0), n, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(ct.Replayer())
	if s.Accesses != n {
		t.Errorf("Accesses = %d", s.Accesses)
	}
	if s.Writes == 0 || s.Writes > n/2 {
		t.Errorf("Writes = %d implausible", s.Writes)
	}
	if s.DistinctBlocks == 0 || s.Regions == 0 || s.DistinctPCs == 0 {
		t.Errorf("summary = %+v", s)
	}
	if s.Regions > s.DistinctBlocks {
		t.Error("more regions than blocks")
	}
}

func TestGeneratorImplementsStream(t *testing.T) {
	var _ Source = NewGenerator(testParams(), 1, 0)
	var _ Source = (*Phased)(nil)
	var _ Source = (*CompiledReplayer)(nil)
}
