package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLoadRefsPerSec pins the test2json parsing: output events can split
// one benchmark result line mid-way, -count > 1 yields repeated names,
// and lines without a refs/s metric are ignored.
func TestLoadRefsPerSec(t *testing.T) {
	log := `{"Action":"start","Package":"repro"}
{"Action":"output","Package":"repro","Output":"goos: linux\n"}
{"Action":"output","Package":"repro","Output":"BenchmarkShardedReferenceBuffered/load=snapshots/mode=locked     "}
{"Action":"output","Package":"repro","Output":"\t   35818\t     33422 ns/op\t        0.99 hit-ratio\t     29920 refs/s\t     129 B/op\t       1 allocs/op\n"}
{"Action":"output","Package":"repro","Output":"BenchmarkShardedReferenceBuffered/load=snapshots/mode=locked-8 \t  100\t 10 ns/op\t 8000000 refs/s\n"}
{"Action":"output","Package":"repro","Output":"BenchmarkShardedReferenceBuffered/load=snapshots/mode=locked-8 \t  100\t 12 ns/op\t 7000000 refs/s\n"}
{"Action":"output","Package":"repro","Output":"BenchmarkSnapshotWrite \t 100\t 50000 ns/op\t 120 MB/s\n"}
{"Action":"run","Package":"repro"}
`
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := loadRefsPerSec(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(got), got)
	}
	split := got["BenchmarkShardedReferenceBuffered/load=snapshots/mode=locked"]
	if len(split) != 1 || split[0] != 29920 {
		t.Fatalf("split-line benchmark = %v, want [29920]", split)
	}
	repeated := got["BenchmarkShardedReferenceBuffered/load=snapshots/mode=locked-8"]
	if len(repeated) != 2 || best(repeated) != 8000000 {
		t.Fatalf("repeated benchmark = %v, want best 8000000", repeated)
	}
	if _, ok := got["BenchmarkSnapshotWrite"]; ok {
		t.Fatal("a benchmark without refs/s must be ignored")
	}
}

// rawLog is a synthetic two-benchmark go test -json log with a -count 2
// repeat, allocation counters, and custom metrics.
const rawLog = `{"Action":"start","Package":"repro"}
{"Action":"output","Package":"repro","Output":"BenchmarkShardedReference/whatif=off-8 \t 1000\t 120 ns/op\t 0.95 hit-ratio\t 800000 refs/s\t 0 B/op\t 0 allocs/op\n"}
{"Action":"output","Package":"repro","Output":"BenchmarkShardedReference/whatif=off-8 \t 1000\t 110 ns/op\t 0.95 hit-ratio\t 900000 refs/s\t 16 B/op\t 1 allocs/op\n"}
{"Action":"output","Package":"repro","Output":"BenchmarkShardedReference/whatif=on-8 \t 1000\t 130 ns/op\t 0.94 hit-ratio\t 760000 refs/s\t 0 B/op\t 0 allocs/op\n"}
`

// TestSummarizeRoundTrip pins the compact format: summarize a raw log,
// reload the summary, and check the gate sees the same refs/s numbers
// through either file.
func TestSummarizeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "raw.json")
	if err := os.WriteFile(raw, []byte(rawLog), 0o644); err != nil {
		t.Fatal(err)
	}
	compact := filepath.Join(dir, "summary.json")
	if err := runSummarize(raw, compact); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(compact)
	if err != nil {
		t.Fatal(err)
	}
	sum, ok := decodeSummary(data)
	if !ok {
		t.Fatalf("summary output not detected as summary format: %s", data)
	}
	off := sum.Benchmarks["BenchmarkShardedReference/whatif=off-8"]
	if off == nil {
		t.Fatalf("missing cell; have %v", sum.Benchmarks)
	}
	if off.Count != 2 || off.NsPerOp != 110 || off.AllocsPerOp != 1 || off.BytesPerOp != 16 {
		t.Fatalf("merged cell = %+v, want count 2, best ns/op 110, worst allocs 1 / 16 B", off)
	}
	if off.Metrics["refs/s"] != 900000 || off.Metrics["hit-ratio"] != 0.95 {
		t.Fatalf("merged metrics = %v", off.Metrics)
	}

	fromRaw, err := loadRefsPerSec(raw)
	if err != nil {
		t.Fatal(err)
	}
	fromSum, err := loadRefsPerSec(compact)
	if err != nil {
		t.Fatal(err)
	}
	for name := range fromRaw {
		if best(fromRaw[name]) != best(fromSum[name]) {
			t.Fatalf("%s: raw best %v != summary best %v", name, fromRaw[name], fromSum[name])
		}
	}

	// A summary must refuse to be re-summarized rather than nest.
	if err := runSummarize(compact, filepath.Join(dir, "twice.json")); err == nil {
		t.Fatal("summarizing a summary must error")
	}
}

// TestGateAcrossFormats gates a raw candidate against a summarized
// baseline and checks both the pass and the regression verdicts.
func TestGateAcrossFormats(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "raw.json")
	if err := os.WriteFile(raw, []byte(rawLog), 0o644); err != nil {
		t.Fatal(err)
	}
	compact := filepath.Join(dir, "summary.json")
	if err := runSummarize(raw, compact); err != nil {
		t.Fatal(err)
	}
	base, err := loadRefsPerSec(compact)
	if err != nil {
		t.Fatal(err)
	}
	cand, err := loadRefsPerSec(raw)
	if err != nil {
		t.Fatal(err)
	}
	if report, failed := gate(base, cand, "whatif", 0.30); failed {
		t.Fatalf("identical sides must pass:\n%s", report)
	}
	cand["BenchmarkShardedReference/whatif=on-8"] = []float64{100000}
	report, failed := gate(base, cand, "whatif", 0.30)
	if !failed {
		t.Fatalf("8x regression must fail:\n%s", report)
	}
}

// TestGateAllocs checks the allocation ceiling on either file format: the
// worst observation of a -count run decides, and a filter that matches
// nothing yields no report (which main turns into an error).
func TestGateAllocs(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "raw.json")
	if err := os.WriteFile(raw, []byte(rawLog), 0o644); err != nil {
		t.Fatal(err)
	}
	compact := filepath.Join(dir, "summary.json")
	if err := runSummarize(raw, compact); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{raw, compact} {
		cells, err := loadCells(path)
		if err != nil {
			t.Fatal(err)
		}
		if report, failed := gateAllocs(cells, "whatif=on", 0); failed || report == "" {
			t.Fatalf("%s: an allocation-free benchmark must pass:\n%s", path, report)
		}
		// whatif=off allocated once in one of its two runs.
		if report, failed := gateAllocs(cells, "whatif=off", 0); !failed {
			t.Fatalf("%s: one allocating run of two must fail the gate:\n%s", path, report)
		}
		if report, failed := gateAllocs(cells, "whatif=off", 1); failed {
			t.Fatalf("%s: ceiling 1 admits 1 alloc/op:\n%s", path, report)
		}
		if report, _ := gateAllocs(cells, "no-such-benchmark", 0); report != "" {
			t.Fatalf("%s: unmatched filter produced a report:\n%s", path, report)
		}
	}
}
