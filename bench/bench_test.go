package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestStreamsRepeat holds the generator to its contract: equal seeds give
// byte-identical streams (requests, encoded bytes and hash), different
// seeds give different ones.
func TestStreamsRepeat(t *testing.T) {
	for _, full := range specs {
		sp := full.scaled(0.01)
		a, err := generate(sp, 7)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		b, _ := generate(sp, 7)
		c, _ := generate(sp, 8)
		if a.hash != b.hash || !bytes.Equal(a.arena, b.arena) || !reflect.DeepEqual(a.reqs, b.reqs) || a.capacity != b.capacity {
			t.Errorf("%s: seed 7 twice gave different streams (%s, %s)", sp.name, a.hash, b.hash)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 7 and 8 gave the same stream %s", sp.name, a.hash)
		}
		if !sp.inproc && (len(a.arena) == 0 || bytes.Equal(a.arena, c.arena)) {
			t.Errorf("%s: encoded streams of seeds 7 and 8 are empty or equal", sp.name)
		}
		t.Logf("%s seed 7: %d requests, sha256 %s", sp.name, len(a.reqs), a.hash)
	}
}

// TestSmoke runs every workload at 1/100 scale, measured and traced, and
// expects every metric exactly once with a finite value and every check to
// pass. One client keeps the order of references, and so the counts,
// deterministic at this size.
func TestSmoke(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin, buildS, err := buildDaemon(root)
	if err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{root: root, bin: bin, buildS: buildS, seed: 1, seconds: 0.3, setups: 1, clients: 1}
	for _, full := range specs {
		sp := full.scaled(0.01)
		for _, mode := range []struct {
			name string
			run  func(spec, runConfig) (*outcome, error)
			defs []metricDef
		}{{"measured", measure, endToEnd}, {"traced", traceWorkload, perLayer}} {
			t.Run(sp.name+"/"+mode.name, func(t *testing.T) {
				o, err := mode.run(sp, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range o.problems {
					t.Errorf("check failed: %s", p)
				}
				if o.failed != 0 || o.attempted < 1 {
					t.Errorf("%d of %d operations failed", o.failed, o.attempted)
				}
				if len(o.values) != len(mode.defs) {
					t.Errorf("%d metrics emitted, want %d", len(o.values), len(mode.defs))
				}
				line, err := resultLine(o, mode.defs)
				if err != nil {
					t.Fatal(err)
				}
				var res struct {
					Correct bool
					Metrics map[string]struct {
						Value *float64
						Unit  string
					}
				}
				if err := json.Unmarshal(line, &res); err != nil {
					t.Fatalf("result line %s: %v", line, err)
				}
				if !res.Correct {
					t.Errorf("result line says incorrect: %s", line)
				}
				for _, m := range mode.defs {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Value == nil || got.Unit != m.Unit {
						t.Errorf("metric %s missing from the result line or without its unit %q", m.Name, m.Unit)
						continue
					}
					if math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0) {
						t.Errorf("metric %s = %v", m.Name, *got.Value)
					}
					if mode.name == "measured" && *got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want a positive value", m.Name, *got.Value)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSON holds the committed BENCHMARK.json to the tables in
// metrics.go and stream.go, which are what the command prints.
func TestBenchmarkJSON(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type workload struct{ Name, Why string }
	var got struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(got.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", got.Command, got.Paths)
	}
	var want []workload
	for _, sp := range specs {
		want = append(want, workload{sp.name, sp.why})
	}
	if !reflect.DeepEqual(got.Workloads, want) {
		t.Errorf("workloads differ from specs:\n got %+v\nwant %+v", got.Workloads, want)
	}
	if !reflect.DeepEqual(got.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the endToEnd table:\n got %+v\nwant %+v", got.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(got.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table:\n got %+v\nwant %+v", got.PerLayer, perLayer)
	}
	// The limits a BENCHMARK.json is refused outside of.
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range got.Workloads {
		if !name.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad or repeated name, or a why that is not one line of at most 200 characters", w.Name)
		}
		seen[w.Name] = true
	}
	for _, m := range append(got.EndToEnd, got.PerLayer...) {
		if !name.MatchString(m.Name) || seen[m.Name] || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound > 0.25 {
			t.Errorf("metric %+v: bad or repeated name, unit, direction or bound", m)
		}
		seen[m.Name] = true
	}
}

// TestSpread pins the spread to Python's statistics.quantiles(n=4).
func TestSpread(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{10, 12}, (12.5 - 9.5) / 11},
		{[]float64{3, 1, 2}, (3.0 - 1.0) / 2},
	} {
		if got := spread(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}
