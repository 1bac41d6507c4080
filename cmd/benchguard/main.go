// Command benchguard is the CI benchmark regression gate. It reads two
// benchmark logs — a committed baseline and a fresh candidate — extracts
// the refs/s metric of every benchmark whose name contains the filter
// substring, and fails when the candidate's throughput regresses past
// the allowed fraction of the baseline.
//
// Usage:
//
//	go run ./cmd/benchguard -baseline BENCH_shard_baseline.json \
//	    -candidate BENCH_shard.json -filter load=snapshots -max-regress 0.30
//
// A second gate needs no baseline: with -max-allocs N, every candidate
// benchmark matching the filter must report at most N allocs/op in its
// worst observation — the allocation-free hit path is a property, not a
// trend.
//
//	go run ./cmd/benchguard -candidate BENCH_shard.json \
//	    -filter BenchmarkShardedReference/ -max-allocs 0
//
// Either side may be a raw `go test -json` log or the compact summary
// this command itself produces:
//
//	go run ./cmd/benchguard -summarize -in BENCH_shard.json -o BENCH_summary.json
//
// The summary collapses a multi-megabyte event log into one small JSON
// object (benchmark name → ns/op, allocs/op, refs/s, hit-ratio, ...),
// suitable for committing as a baseline or attaching as a CI artifact
// humans can actually read. The two formats are distinguished by the
// summary's "format" marker, so gate invocations need no flag to say
// which kind each file is.
//
// Benchmarks appearing more than once (a -count > 1 run) are compared by
// their best observation on each side, so scheduler noise in a single
// iteration cannot fail the gate. A filtered benchmark present in the
// baseline but absent from the candidate is an error: a silently dropped
// cell must not pass as "no regression".
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	baseline := flag.String("baseline", "", "baseline `file` (go test -json output or benchguard summary)")
	candidate := flag.String("candidate", "", "candidate `file` (go test -json output or benchguard summary)")
	filter := flag.String("filter", "", "only gate benchmarks whose name contains this `substring`")
	maxRegress := flag.Float64("max-regress", 0.30, "allowed throughput loss as a `fraction` of baseline")
	maxAllocs := flag.Float64("max-allocs", -1, "allocation gate: fail when a filtered -candidate benchmark's worst allocs/op exceeds `N` (takes no -baseline)")
	summarize := flag.Bool("summarize", false, "summarize mode: condense one go test -json log into the compact summary format instead of gating")
	in := flag.String("in", "", "summarize: input `file` (go test -json output)")
	out := flag.String("o", "", "summarize: output `file` (default stdout)")
	flag.Parse()

	if *summarize {
		if *baseline != "" || *candidate != "" {
			fmt.Fprintln(os.Stderr, "benchguard: -baseline/-candidate have no effect with -summarize")
			os.Exit(2)
		}
		if *in == "" {
			fmt.Fprintln(os.Stderr, "benchguard: -summarize requires -in")
			flag.Usage()
			os.Exit(2)
		}
		if err := runSummarize(*in, *out); err != nil {
			fatal(err)
		}
		return
	}
	if *in != "" || *out != "" {
		fmt.Fprintln(os.Stderr, "benchguard: -in/-o need -summarize")
		os.Exit(2)
	}
	if *maxAllocs >= 0 {
		if *baseline != "" || *candidate == "" {
			fmt.Fprintln(os.Stderr, "benchguard: -max-allocs takes -candidate and no -baseline")
			os.Exit(2)
		}
		cells, err := loadCells(*candidate)
		if err != nil {
			fatal(err)
		}
		report, failed := gateAllocs(cells, *filter, *maxAllocs)
		if report == "" {
			fatal(fmt.Errorf("candidate %s has no benchmarks matching %q", *candidate, *filter))
		}
		fmt.Print(report)
		if failed {
			os.Exit(1)
		}
		return
	}
	if *baseline == "" || *candidate == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -baseline and -candidate are required")
		flag.Usage()
		os.Exit(2)
	}

	base, err := loadRefsPerSec(*baseline)
	if err != nil {
		fatal(err)
	}
	cand, err := loadRefsPerSec(*candidate)
	if err != nil {
		fatal(err)
	}

	report, failed := gate(base, cand, *filter, *maxRegress)
	if report == "" {
		fatal(fmt.Errorf("baseline %s has no refs/s benchmarks matching %q", *baseline, *filter))
	}
	fmt.Print(report)
	if failed {
		os.Exit(1)
	}
}

// gate compares the filtered baseline benchmarks against the candidate
// and renders the verdict lines. An empty report means the filter
// matched nothing in the baseline.
func gate(base, cand map[string][]float64, filter string, maxRegress float64) (report string, failed bool) {
	var sb strings.Builder
	for _, name := range matching(base, filter) {
		b := best(base[name])
		got, ok := cand[name]
		if !ok {
			fmt.Fprintf(&sb, "FAIL %s: present in baseline (%.0f refs/s) but missing from candidate\n", name, b)
			failed = true
			continue
		}
		c := best(got)
		floor := b * (1 - maxRegress)
		verdict := "ok  "
		if c < floor {
			verdict = "FAIL"
			failed = true
		}
		fmt.Fprintf(&sb, "%s %s: baseline %.0f refs/s, candidate %.0f refs/s (floor %.0f)\n",
			verdict, name, b, c, floor)
	}
	return sb.String(), failed
}

// gateAllocs checks the filtered candidate cells against the allocation
// ceiling. An empty report means the filter matched nothing.
func gateAllocs(cells map[string]*benchCell, filter string, maxAllocs float64) (report string, failed bool) {
	var sb strings.Builder
	for _, name := range matching(cells, filter) {
		verdict := "ok  "
		if cells[name].AllocsPerOp > maxAllocs {
			verdict = "FAIL"
			failed = true
		}
		fmt.Fprintf(&sb, "%s %s: %g allocs/op (ceiling %g)\n", verdict, name, cells[name].AllocsPerOp, maxAllocs)
	}
	return sb.String(), failed
}

// matching returns the benchmark names containing filter, sorted.
func matching[V any](benchmarks map[string]V, filter string) []string {
	names := make([]string, 0, len(benchmarks))
	for name := range benchmarks {
		if strings.Contains(name, filter) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}

func best(vs []float64) float64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// summaryFormat marks a benchguard summary file; the loader keys format
// detection on it, so it must change if the schema ever does.
const summaryFormat = "benchguard-summary/v1"

// benchCell is one benchmark's condensed result across every
// observation of its name in the source log.
type benchCell struct {
	// Count is how many observations (-count runs) were merged.
	Count int `json:"count"`
	// NsPerOp is the best (lowest) ns/op observation.
	NsPerOp float64 `json:"ns_per_op,omitempty"`
	// AllocsPerOp and BytesPerOp are the worst (highest) observations,
	// so a zero here really means zero allocations in every run.
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// Metrics holds the best (highest) observation of each custom
	// b.ReportMetric unit: refs/s, hit-ratio, θ, ...
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// benchSummary is the compact file format: a format marker plus one
// cell per benchmark name.
type benchSummary struct {
	Format     string                `json:"format"`
	Benchmarks map[string]*benchCell `json:"benchmarks"`
}

// runSummarize condenses one raw go test -json log into the summary
// format, written to path out (stdout when empty).
func runSummarize(in, out string) error {
	data, err := os.ReadFile(in)
	if err != nil {
		return err
	}
	if _, ok := decodeSummary(data); ok {
		return fmt.Errorf("%s is already a benchguard summary", in)
	}
	obs, err := parseRawLog(in, data)
	if err != nil {
		return err
	}
	sum := summarize(obs)
	if len(sum.Benchmarks) == 0 {
		return fmt.Errorf("%s has no benchmark result lines", in)
	}
	enc, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(out, enc, 0o644)
}

// summarize merges raw observations into cells, best-per-side: lowest
// ns/op, highest custom metrics, highest (worst) allocation counters.
func summarize(obs []observation) benchSummary {
	sum := benchSummary{Format: summaryFormat, Benchmarks: make(map[string]*benchCell)}
	for _, o := range obs {
		c := sum.Benchmarks[o.name]
		if c == nil {
			c = &benchCell{Metrics: make(map[string]float64)}
			sum.Benchmarks[o.name] = c
		}
		c.Count++
		for unit, v := range o.values {
			switch unit {
			case "ns/op":
				if c.Count == 1 || v < c.NsPerOp {
					c.NsPerOp = v
				}
			case "allocs/op":
				c.AllocsPerOp = max(c.AllocsPerOp, v)
			case "B/op":
				c.BytesPerOp = max(c.BytesPerOp, v)
			default:
				if prev, ok := c.Metrics[unit]; !ok || v > prev {
					c.Metrics[unit] = v
				}
			}
		}
	}
	for _, c := range sum.Benchmarks {
		if len(c.Metrics) == 0 {
			c.Metrics = nil
		}
	}
	return sum
}

// decodeSummary reports whether data is a benchguard summary file.
func decodeSummary(data []byte) (benchSummary, bool) {
	var sum benchSummary
	if err := json.Unmarshal(data, &sum); err != nil || sum.Format != summaryFormat {
		return benchSummary{}, false
	}
	return sum, true
}

// observation is one raw benchmark result line: name plus each
// "value unit" pair on it.
type observation struct {
	name   string
	values map[string]float64
}

// loadCells reads one file in either format into summary cells.
func loadCells(path string) (map[string]*benchCell, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if sum, ok := decodeSummary(data); ok {
		return sum.Benchmarks, nil
	}
	obs, err := parseRawLog(path, data)
	if err != nil {
		return nil, err
	}
	return summarize(obs).Benchmarks, nil
}

// loadRefsPerSec collects every refs/s observation per benchmark name
// from one file in either format.
func loadRefsPerSec(path string) (map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]float64)
	if sum, ok := decodeSummary(data); ok {
		for name, c := range sum.Benchmarks {
			if v, ok := c.Metrics["refs/s"]; ok {
				out[name] = append(out[name], v)
			}
		}
		return out, nil
	}
	obs, err := parseRawLog(path, data)
	if err != nil {
		return nil, err
	}
	for _, o := range obs {
		if v, ok := o.values["refs/s"]; ok {
			out[o.name] = append(out[o.name], v)
		}
	}
	return out, nil
}

// parseRawLog parses a `go test -json` log into benchmark observations.
// The JSON events split output on line boundaries but can also split a
// single benchmark result line across events, so the Output payloads
// are reassembled into a text stream before line-level parsing.
func parseRawLog(path string, data []byte) ([]observation, error) {
	var text strings.Builder
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var ev struct {
			Action string `json:"Action"`
			Output string `json:"Output"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("%s: not a go test -json log: %w", path, err)
		}
		if ev.Action == "output" {
			text.WriteString(ev.Output)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	var out []observation
	for _, line := range strings.Split(text.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") || len(fields)%2 != 0 {
			continue
		}
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			continue // "Benchmark..." prose, not a result line
		}
		o := observation{name: fields[0], values: make(map[string]float64, (len(fields)-2)/2)}
		ok := true
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				ok = false
				break
			}
			o.values[fields[i+1]] = v
		}
		if ok {
			out = append(out, o)
		}
	}
	return out, nil
}
