// Command watchman is the CLI for the WATCHMAN reproduction. It generates
// benchmark traces, replays them against cache policies, and regenerates
// the tables and figures of the paper's evaluation.
//
// Usage:
//
//	watchman trace -benchmark tpcd -queries 17000 -o tpcd.trace
//	watchman inspect -i tpcd.trace
//	watchman run -i tpcd.trace -policy lnc-ra -k 4 -cache-pct 1
//	watchman experiments -figure all
//	watchman compare -benchmark tpcd -cache-pct 1
//	watchman serve -addr :8080 -policy lnc-ra -shards 16 -cache-bytes 67108864
//	watchman loadgen -i tpcd.trace -concurrency 64
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "experiments":
		err = cmdExperiments(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "loadgen":
		err = cmdLoadgen(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "watchman: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "watchman:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `watchman — data warehouse intelligent cache manager (VLDB 1996 reproduction)

commands:
  trace        generate a benchmark workload trace file
  inspect      print statistics of a trace file
  run          replay a trace against a cache configuration
  experiments  regenerate the paper's tables and figures
  compare      replay one trace across policies (incl. adaptive admission)
  serve        run the sharded cache as an HTTP daemon
  loadgen      replay a trace concurrently against a server or in-process cache

run 'watchman <command> -h' for flags.
`)
}

// generateTrace builds a trace from CLI parameters.
func generateTrace(benchmark string, queries int, seed int64, scale float64) (*trace.Trace, error) {
	cfg := workload.Config{Queries: queries, Seed: seed}
	switch benchmark {
	case "tpcd":
		_, tr, err := workload.StandardTPCD(scale, cfg)
		return tr, err
	case "setquery":
		_, tr, err := workload.StandardSetQuery(scale, cfg)
		return tr, err
	case "multiclass":
		_, tr, err := workload.GenerateMulticlass(scale, workload.MulticlassConfig{Config: cfg})
		return tr, err
	case "drilldown":
		_, tr, err := workload.StandardDrilldown(scale, cfg)
		return tr, err
	default:
		return nil, fmt.Errorf("unknown benchmark %q (want tpcd, setquery, multiclass or drilldown)", benchmark)
	}
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	benchmark := fs.String("benchmark", "tpcd", "workload: tpcd, setquery, multiclass or drilldown")
	queries := fs.Int("queries", 17000, "number of queries")
	seed := fs.Int64("seed", 1, "random seed")
	scale := fs.Float64("scale", 0, "database scale (0 = paper default)")
	out := fs.String("o", "", "output file (required)")
	format := fs.String("format", "bin", "output format: bin or csv")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("trace: -o is required")
	}
	tr, err := generateTrace(*benchmark, *queries, *seed, *scale)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	switch *format {
	case "bin":
		err = trace.WriteBinary(f, tr)
	case "csv":
		err = trace.WriteCSV(f, tr)
	default:
		return fmt.Errorf("trace: unknown format %q", *format)
	}
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st := trace.ComputeStats(tr)
	fmt.Printf("wrote %s: %s\n", *out, st)
	return nil
}

// loadTrace reads a trace file, trying the binary codec first.
func loadTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := trace.ReadBinary(f)
	if err == nil {
		return tr, nil
	}
	if _, serr := f.Seek(0, 0); serr != nil {
		return nil, serr
	}
	tr, cerr := trace.ReadCSV(f)
	if cerr != nil {
		return nil, fmt.Errorf("not a binary trace (%v) nor CSV (%v)", err, cerr)
	}
	return tr, nil
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	in := fs.String("i", "", "trace file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("inspect: -i is required")
	}
	tr, err := loadTrace(*in)
	if err != nil {
		return err
	}
	if err := tr.Validate(); err != nil {
		return err
	}
	st := trace.ComputeStats(tr)
	t := metrics.NewTable(fmt.Sprintf("trace %s (database %s)", tr.Name, metrics.Bytes(tr.DatabaseBytes)),
		"metric", "value")
	t.AddRow("queries", fmt.Sprint(st.Queries))
	t.AddRow("unique queries", fmt.Sprint(st.Unique))
	t.AddRow("total cost (block reads)", fmt.Sprintf("%.0f", st.TotalCost))
	t.AddRow("working set", metrics.Bytes(st.UniqueBytes))
	t.AddRow("duration (s)", fmt.Sprintf("%.0f", st.Duration))
	t.AddRow("max hit ratio (inf cache)", metrics.Ratio(st.MaxHitRatio))
	t.AddRow("max cost savings (inf cache)", metrics.Ratio(st.MaxCostSavings))
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	pt := metrics.NewTable("per-template submissions", "template", "count")
	for _, name := range st.TemplateNames() {
		pt.AddRow(name, fmt.Sprint(st.Templates[name]))
	}
	return pt.Render(os.Stdout)
}

// parsePolicy maps a CLI name to a policy kind.
func parsePolicy(name string) (core.PolicyKind, error) {
	switch strings.ToLower(name) {
	case "lru":
		return core.LRU, nil
	case "lru-k", "lruk":
		return core.LRUK, nil
	case "lfu":
		return core.LFU, nil
	case "lcs":
		return core.LCS, nil
	case "lnc-r", "lncr":
		return core.LNCR, nil
	case "lnc-ra", "lncra":
		return core.LNCRA, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (want lru, lru-k, lfu, lcs, lnc-r or lnc-ra)", name)
	}
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	in := fs.String("i", "", "trace file (generate with 'watchman trace')")
	benchmark := fs.String("benchmark", "", "generate the workload in-process instead of -i")
	queries := fs.Int("queries", 17000, "queries when generating in-process")
	seed := fs.Int64("seed", 1, "seed when generating in-process")
	scale := fs.Float64("scale", 0, "database scale when generating in-process")
	policy := fs.String("policy", "lnc-ra", "cache policy")
	k := fs.Int("k", 4, "reference-window size K")
	cachePct := fs.Float64("cache-pct", 1, "cache size as % of database size")
	cacheBytes := fs.Int64("cache-bytes", 0, "cache size in bytes (overrides -cache-pct)")
	evictor := fs.String("evictor", "scan", "victim search: scan (exact) or heap (near-exact)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var tr *trace.Trace
	var err error
	switch {
	case *in != "":
		tr, err = loadTrace(*in)
	case *benchmark != "":
		tr, err = generateTrace(*benchmark, *queries, *seed, *scale)
	default:
		return fmt.Errorf("run: need -i or -benchmark")
	}
	if err != nil {
		return err
	}
	pk, err := parsePolicy(*policy)
	if err != nil {
		return err
	}
	ek := core.ScanEvictor
	if *evictor == "heap" {
		ek = core.HeapEvictor
	} else if *evictor != "scan" {
		return fmt.Errorf("run: unknown evictor %q", *evictor)
	}
	capacity := *cacheBytes
	if capacity <= 0 {
		capacity = sim.CacheBytesForFraction(tr, *cachePct)
	}
	res, cache, err := sim.Replay(tr, core.Config{
		Capacity: capacity,
		K:        *k,
		Policy:   pk,
		Evictor:  ek,
	})
	if err != nil {
		return err
	}
	st := res.Stats
	t := metrics.NewTable(fmt.Sprintf("%s on %s, cache %s", res.Policy, tr.Name, metrics.Bytes(capacity)),
		"metric", "value")
	t.AddRow("cost savings ratio", metrics.Ratio(res.CSR()))
	t.AddRow("hit ratio", metrics.Ratio(res.HR()))
	t.AddRow("avg fragmentation", metrics.Pct(st.AvgFragmentation()))
	t.AddRow("references", fmt.Sprint(st.References))
	t.AddRow("hits", fmt.Sprint(st.Hits))
	t.AddRow("admissions", fmt.Sprint(st.Admissions))
	t.AddRow("rejections", fmt.Sprint(st.Rejections))
	t.AddRow("evictions", fmt.Sprint(st.Evictions))
	t.AddRow("resident sets at end", fmt.Sprint(cache.Resident()))
	t.AddRow("retained records at end", fmt.Sprint(cache.Retained()))
	return t.Render(os.Stdout)
}

func cmdExperiments(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	figure := fs.String("figure", "all", "which artifact: 2,3,4,5,6,7,optimality,retained,multiclass,baselines or all")
	queries := fs.Int("queries", 17000, "trace length")
	bufQueries := fs.Int("buffer-queries", 0, "Figure 7 trace length (0 = -queries)")
	seed := fs.Int64("seed", 42, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	suite := experiments.NewSuite(experiments.Options{
		Queries:       *queries,
		BufferQueries: *bufQueries,
		Seed:          *seed,
	})
	render := func(ts []*metrics.Table, err error) error {
		if err != nil {
			return err
		}
		for _, t := range ts {
			if err := t.Render(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	}
	one := func(t *metrics.Table, err error) error {
		if err != nil {
			return err
		}
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		return nil
	}
	want := func(name string) bool { return *figure == "all" || *figure == name }

	if want("2") {
		if err := one(suite.Figure2()); err != nil {
			return err
		}
	}
	if want("3") {
		if err := render(suite.Figure3()); err != nil {
			return err
		}
	}
	if want("4") {
		if err := render(suite.Figure4()); err != nil {
			return err
		}
	}
	if want("5") {
		if err := render(suite.Figure5()); err != nil {
			return err
		}
	}
	if want("6") {
		if err := render(suite.Figure6()); err != nil {
			return err
		}
	}
	if want("7") {
		if err := one(suite.Figure7()); err != nil {
			return err
		}
	}
	if want("optimality") {
		if err := one(suite.Optimality(0, 0)); err != nil {
			return err
		}
	}
	if want("retained") {
		if err := one(suite.AblationRetained()); err != nil {
			return err
		}
	}
	if want("multiclass") {
		if err := one(suite.Multiclass()); err != nil {
			return err
		}
	}
	if want("baselines") {
		if err := one(suite.Baselines()); err != nil {
			return err
		}
	}
	return nil
}
