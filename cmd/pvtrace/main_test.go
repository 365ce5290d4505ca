package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Oracle") {
		t.Errorf("list output:\n%s", out.String())
	}
}

func TestRecordAndInspect(t *testing.T) {
	file := filepath.Join(t.TempDir(), "t.pva")
	var out bytes.Buffer
	if err := run([]string{"-record", "-workload", "Qry1", "-n", "5000", "-o", file}, &out); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(file); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-inspect", file}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "accesses:        5000") {
		t.Errorf("inspect output:\n%s", out.String())
	}
}

// TestRecordDeterministic mirrors the pvcalib determinism pin for the
// trace recorder: two recordings of the same (workload, seed, core, n)
// must be byte-identical files with byte-identical command output, a
// different seed must change the bytes, and inspecting the same file
// twice must render identical summaries.
func TestRecordDeterministic(t *testing.T) {
	dir := t.TempDir()
	record := func(file, seed string) (fileBytes []byte, cmdOut string) {
		t.Helper()
		var out bytes.Buffer
		if err := run([]string{"-record", "-workload", "DB2", "-n", "4000", "-seed", seed, "-o", file}, &out); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		// The summary line names the output file; normalize it away so
		// recordings into different paths stay comparable.
		return b, strings.ReplaceAll(out.String(), file, "OUT")
	}
	a, aOut := record(filepath.Join(dir, "a.pva"), "42")
	b, bOut := record(filepath.Join(dir, "b.pva"), "42")
	if !bytes.Equal(a, b) {
		t.Fatalf("same (workload, seed, n) recorded different bytes: %d vs %d", len(a), len(b))
	}
	if aOut != bOut {
		t.Fatalf("record output differs for identical recordings:\n--- a ---\n%s\n--- b ---\n%s", aOut, bOut)
	}
	c, _ := record(filepath.Join(dir, "c.pva"), "43")
	if bytes.Equal(a, c) {
		t.Fatal("seed 43 recorded the same bytes as seed 42; seeding is broken")
	}

	inspect := func(file string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run([]string{"-inspect", file}, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	first := inspect(filepath.Join(dir, "a.pva"))
	if second := inspect(filepath.Join(dir, "a.pva")); first != second {
		t.Fatalf("inspect is not deterministic:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if !strings.Contains(first, "accesses:        4000") {
		t.Errorf("inspect summary:\n%s", first)
	}
}

// TestCompileAndInspect pins the chunked PVA2 output of -record: -chunk
// sets the chunk length inspect reports, and the chunking changes no
// access, so the summary matches a default-chunk recording's.
func TestCompileAndInspect(t *testing.T) {
	dir := t.TempDir()
	def := filepath.Join(dir, "def.pva")
	small := filepath.Join(dir, "small.pva")

	var out bytes.Buffer
	if err := run([]string{"-record", "-workload", "Qry1", "-n", "5000", "-o", def}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-record", "-workload", "Qry1", "-n", "5000", "-chunk", "1024", "-o", small}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "5 chunks of 1024") {
		t.Errorf("record output:\n%s", out.String())
	}

	inspect := func(file string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run([]string{"-inspect", file}, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	a, b := inspect(def), inspect(small)
	if !strings.Contains(b, "PVA2 compiled (5 chunks of 1024) — workload=Qry1 seed=42 core=0") {
		t.Errorf("inspect does not name the format and provenance:\n%s", b)
	}
	// Same stream, same statistics: strip the format line and compare.
	strip := func(s string) string { return s[strings.Index(s, "accesses:"):] }
	if strip(a) != strip(b) {
		t.Fatalf("summaries diverge across chunk lengths:\n--- default ---\n%s--- 1024 ---\n%s", a, b)
	}
}

// TestInspectRejectsOtherFormats pins that -inspect reads PVA2 only: any
// other file is an error naming the magic found in it.
func TestInspectRejectsOtherFormats(t *testing.T) {
	file := filepath.Join(t.TempDir(), "old.pva")
	if err := os.WriteFile(file, append([]byte("PVA1"), make([]byte, 40)...), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-inspect", file}, &out)
	if err == nil {
		t.Fatalf("non-PVA2 file inspected:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), `"PVA1"`) {
		t.Fatalf("error %q does not name the magic found", err)
	}
}

func TestErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Error("no mode accepted")
	}
	if err := run([]string{"-record"}, &out); err == nil {
		t.Error("record without -o accepted")
	}
	if err := run([]string{"-record", "-workload", "nope", "-o", "/tmp/x"}, &out); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run([]string{"-inspect", "/does/not/exist"}, &out); err == nil {
		t.Error("missing file accepted")
	}
	for _, gone := range []string{"-compile", "-from"} {
		if err := run([]string{gone, "x"}, &out); err == nil {
			t.Errorf("removed flag %s accepted", gone)
		}
	}
}
