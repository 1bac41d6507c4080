// Command bench is the repository's end-to-end benchmark: it builds
// ./cmd/watchman, runs the real `watchman serve` with its default flags and
// drives it closed-loop over HTTP (and, for one workload, calls
// shard.Sharded in-process) with seeded request streams, then prints every
// metric by name and unit and checks the system's outputs.
//
//	go run ./bench                      all four workloads, tracing off
//	go run ./bench -trace 1             the traced layer ladder, span files in bench/out
//	go run ./bench -repeat 10           ten measured sets on seeds seed..seed+9, with spreads
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//
// With -workload, the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics. The exit code is
// non-zero when a check fails. See bench/README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all): tpcd_http, zipf_evict_http, hot_inproc, hot_churn_http")
		seed     = flag.Int64("seed", 1, "seed of every generated stream")
		seconds  = flag.Float64("seconds", 10, "length of the measured phase with tracing off")
		trace    = flag.Int("trace", 0, "1 runs the traced layer ladder and prints the per-layer metrics instead")
		repeat   = flag.Int("repeat", 1, "run the set this many times, on seeds seed, seed+1, ..., and print each end-to-end metric's spread")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// setups is how many times a measured run sets its workload up.
const setups = 3

func run(workload string, seed int64, seconds float64, traced bool, repeat int) error {
	if seconds <= 0 || repeat < 1 || flag.NArg() > 0 {
		return fmt.Errorf("bad arguments: -seconds must be positive, -repeat at least 1, and no positional arguments")
	}
	selected := specs
	if workload != "" {
		selected = nil
		for _, sp := range specs {
			if sp.name == workload {
				selected = []spec{sp}
			}
		}
		if selected == nil {
			return fmt.Errorf("unknown workload %q", workload)
		}
	}
	if workload == "" || repeat > 1 {
		return runSet(selected, seed, seconds, traced, repeat)
	}
	return runOne(selected[0], seed, seconds, traced)
}

// runOne runs one workload once in this process and ends standard output
// with the JSON result line.
func runOne(sp spec, seed int64, seconds float64, traced bool) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	bin, buildS, err := buildDaemon(root)
	if err != nil {
		return err
	}
	cfg := runConfig{root: root, bin: bin, buildS: buildS, seed: seed, seconds: seconds,
		setups: setups, clients: min(runtime.NumCPU(), 4)}
	printEnv(cfg)
	o, defs := (*outcome)(nil), endToEnd
	if traced {
		defs = perLayer
		o, err = traceWorkload(sp, cfg)
	} else {
		o, err = measure(sp, cfg)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", sp.name, err)
	}
	printOutcome(o, defs, seed)
	line, err := resultLine(o, defs)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if len(o.problems) > 0 || o.failed > 0 {
		return fmt.Errorf("%s: checks failed", sp.name)
	}
	return nil
}

// runSet runs the selected workloads repeat times, each run a process of
// its own as the driver of BENCHMARK.json starts them: a run's heap, its
// peak resident set and the background work an observer leaves behind
// (the admission tuner scores its backlog for minutes) stay out of the
// next run. Repeat r uses seed+r. With several repeats it prints each
// end-to-end metric's spread and fails if one exceeds its bound.
func runSet(selected []spec, seed int64, seconds float64, traced bool, repeat int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	failed := false
	runs := map[string]map[string][]float64{} // workload → metric → one value per repeat
	for rep := 0; rep < repeat; rep++ {
		for _, sp := range selected {
			cmd := exec.Command(self, "-workload", sp.name, "-seed", strconv.FormatInt(seed+int64(rep), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			out = bytes.TrimSpace(out)
			if err != nil {
				fmt.Printf("%s\n%s: %v\n", out, sp.name, err)
				failed = true
				continue
			}
			// The run's last line is its JSON result; the rest is for people.
			cut := bytes.LastIndexByte(out, '\n') + 1
			fmt.Printf("%s", out[:cut])
			var res struct {
				Metrics map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal(out[cut:], &res); err != nil {
				return fmt.Errorf("%s: result line: %w", sp.name, err)
			}
			if runs[sp.name] == nil {
				runs[sp.name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				runs[sp.name][name] = append(runs[sp.name][name], m.Value)
			}
		}
	}
	if repeat > 1 && !traced && !failed && !printSpreads(selected, runs) {
		failed = true
	}
	if failed {
		return fmt.Errorf("checks failed")
	}
	return nil
}

// printEnv prints the machine a number must be read with.
func printEnv(cfg runConfig) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d (generator; the server runs with its default, nproc) go=%s commit=%s clients=%d build.s=%.3f\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, cfg.clients, cfg.buildS)
}

// printOutcome prints one workload's metrics by name and unit, its notes
// and its failed checks.
func printOutcome(o *outcome, defs []metricDef, seed int64) {
	fmt.Printf("\n== %s (seed %d)\n", o.workload, seed)
	for _, m := range defs {
		fmt.Printf("%-34s %16.4f %s\n", m.Name, o.values[m.Name], m.Unit)
	}
	fmt.Printf("%-34s %16d of %d operations\n", "failed", o.failed, o.attempted)
	for _, n := range o.notes {
		fmt.Println("  " + n)
	}
	for _, p := range o.problems {
		fmt.Println("  CHECK FAILED: " + p)
	}
	if len(o.problems) == 0 {
		fmt.Println("  all checks passed")
	}
}

// resultLine renders the run's result as one JSON object.
func resultLine(o *outcome, defs []metricDef) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(o.problems) == 0 && o.failed == 0, o.attempted, o.failed, map[string]value{}}
	for _, m := range defs {
		v := o.values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is not finite", o.workload, m.Name)
		}
		res.Metrics[m.Name] = value{v, m.Unit}
	}
	return json.Marshal(res)
}

// printSpreads prints, per workload and end-to-end metric, the median of
// the repeats and their spread next to the metric's bound, and reports
// whether every spread but setup_s's stays within its bound.
func printSpreads(selected []spec, runs map[string]map[string][]float64) bool {
	ok := true
	fmt.Printf("\n== spread over %d runs: (Q3-Q1)/median, quartiles as Python's statistics.quantiles(n=4)\n", len(runs[selected[0].name]["setup_s"]))
	fmt.Printf("%-16s %-16s %14s %9s %7s\n", "workload", "metric", "median", "spread", "bound")
	for _, sp := range selected {
		for _, m := range endToEnd {
			xs := runs[sp.name][m.Name]
			s := spread(xs)
			verdict := ""
			if s > m.Bound && m.Name != "setup_s" {
				verdict, ok = "  EXCEEDS BOUND", false
			}
			fmt.Printf("%-16s %-16s %14.4f %8.2f%% %6.1f%%%s\n", sp.name, m.Name, median(xs), 100*s, 100*m.Bound, verdict)
		}
	}
	return ok
}
