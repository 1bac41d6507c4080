package main

// The policy-comparison experiment harness: `watchman compare` replays one
// trace across a set of cache policies — including the shadow-tuned
// adaptive admitter — and emits a cost-savings-ratio table, the repo's
// first cross-policy, cross-workload evaluation surface.

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/derive"
	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/whatif"
)

// defaultComparePolicies is the policy lineup compared by default: the
// paper's flagship against its adaptive extension and the two classic
// baselines.
const defaultComparePolicies = "lnc-ra,lnc-ra-adaptive,lru,lru-k"

// compareRow is one policy's replay outcome within a comparison.
type compareRow struct {
	label    string
	stats    core.Stats
	classes  []telemetry.ClassSnapshot // per-class breakdown from the attached registry
	adaptive *sim.AdaptiveResult       // nil for static policies
	regret   []flight.Regret           // -explain: top regretted rejections
	tracked  int                       // -explain: signatures the tracker followed
}

// regretTopK bounds the -explain regret report per policy.
const regretTopK = 10

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	in := fs.String("i", "", "trace file (default: generate -benchmark in-process)")
	benchmark := fs.String("benchmark", "tpcd", "workload when generating in-process: tpcd, setquery, multiclass or drilldown")
	queries := fs.Int("queries", 17000, "queries when generating in-process")
	seed := fs.Int64("seed", 1, "seed when generating in-process")
	scale := fs.Float64("scale", 0, "database scale when generating in-process (0 = paper default)")
	policies := fs.String("policies", defaultComparePolicies,
		"comma-separated policies to compare (lnc-ra-adaptive selects the shadow-tuned admitter; lnc-ra-derive enables semantic derivation and needs a trace with plan descriptors)")
	k := fs.Int("k", 4, "reference-window size K")
	cachePct := fs.Float64("cache-pct", 1, "cache size as % of database size")
	cacheBytes := fs.Int64("cache-bytes", 0, "cache size in bytes (overrides -cache-pct)")
	window := fs.Int("window", admission.DefaultWindow, "adaptive tuner: references per tuning round")
	restart := fs.Bool("restart", false, "run the warm-vs-cold restart experiment instead: replay half the trace, snapshot + restore through the daemon's snapshot path, replay the rest, and compare second-half cost savings against the uninterrupted and cold-restart runs (always LNC-RA)")
	explain := fs.Bool("explain", false, "after the comparison table, print each policy's regret report: the top rejected-then-re-referenced signatures ranked by cost forgone, with the last rejection's profit-vs-θ·bar inputs")
	whatifOn := fs.Bool("whatif", false, "run the ghost-matrix experiment instead: one real lnc-ra replay with the sampled what-if grid attached, reporting estimated CSR per (capacity ladder × policy) cell and the advisor verdict")
	whatifSample := fs.Int("whatif-sample", whatif.DefaultSampleRate, "what-if matrix: replay 1 in R references into ghosts scaled by 1/R (needs -whatif)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *restart {
		// The restart experiment replays one fixed policy; reject rather
		// than silently ignore flags that would not shape it (same
		// strictness as serve's -tune-window / -snapshot-interval).
		var ignored []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "policies", "window", "explain", "whatif", "whatif-sample":
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			return fmt.Errorf("compare: %s has no effect with -restart (the experiment always replays lnc-ra)",
				strings.Join(ignored, ", "))
		}
	}
	if !*whatifOn {
		var ignored []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "whatif-sample" {
				ignored = append(ignored, "-"+f.Name+" (needs -whatif)")
			}
		})
		if len(ignored) > 0 {
			return fmt.Errorf("compare: %s", strings.Join(ignored, ", "))
		}
	} else {
		// The ghost matrix carries its own policy grid and event-driven
		// accounting; the per-policy flags of the plain comparison do not
		// shape it.
		var ignored []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "policies", "explain":
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			return fmt.Errorf("compare: %s has no effect with -whatif (the ghost matrix runs its own policy grid)",
				strings.Join(ignored, ", "))
		}
	}
	var tr *trace.Trace
	var err error
	if *in != "" {
		tr, err = loadTrace(*in)
	} else {
		tr, err = generateTrace(*benchmark, *queries, *seed, *scale)
	}
	if err != nil {
		return err
	}
	if err := tr.Validate(); err != nil {
		return err
	}
	capacity := *cacheBytes
	if capacity <= 0 {
		capacity = sim.CacheBytesForFraction(tr, *cachePct)
	}
	if *restart {
		return compareRestart(tr, capacity, *k)
	}
	if *whatifOn {
		return compareWhatIf(tr, capacity, *k, *window, *whatifSample)
	}

	var rows []compareRow
	for _, name := range strings.Split(*policies, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		row, err := compareOne(tr, name, capacity, *k, *window, *explain)
		if err != nil {
			return fmt.Errorf("compare: %w", err)
		}
		rows = append(rows, row)
	}

	// Multiclass traces get one CSR column per workload class, read off
	// each replay's telemetry registry.
	numClasses := 0
	for _, r := range rows {
		if n := len(r.classes); n > numClasses {
			numClasses = n
		}
	}
	cols := []string{"policy", "cost savings"}
	if numClasses > 1 {
		for c := 0; c < numClasses; c++ {
			cols = append(cols, fmt.Sprintf("class%d CSR", c))
		}
	}
	cols = append(cols, "hit ratio", "derived", "admissions", "rejections", "evictions")
	t := metrics.NewTable(
		fmt.Sprintf("policy comparison on %s, cache %s, K=%d", tr.Name, metrics.Bytes(capacity), *k),
		cols...)
	for _, r := range rows {
		cells := []string{r.label, metrics.Ratio(r.stats.CostSavingsRatio())}
		if numClasses > 1 {
			for c := 0; c < numClasses; c++ {
				if c < len(r.classes) {
					cells = append(cells, metrics.Ratio(r.classes[c].CSR()))
				} else {
					cells = append(cells, "-")
				}
			}
		}
		cells = append(cells,
			metrics.Ratio(r.stats.HitRatio()),
			fmt.Sprint(r.stats.DerivedHits),
			fmt.Sprint(r.stats.Admissions),
			fmt.Sprint(r.stats.Rejections),
			fmt.Sprint(r.stats.Evictions))
		t.AddRow(cells...)
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	for _, r := range rows {
		if r.adaptive != nil {
			fmt.Printf("\nadaptive admitter: final θ=%g after %d tuning rounds (%d parameter switches), window %d refs\n",
				r.adaptive.FinalThreshold, r.adaptive.Rounds, r.adaptive.Switches, *window)
		}
	}
	if *explain {
		for _, r := range rows {
			if err := renderRegret(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// renderRegret prints one policy's regret report: the signatures whose
// rejection cost the most, with the inequality inputs of the last decided
// rejection so the reader can see how far each one missed the bar.
func renderRegret(r compareRow) error {
	fmt.Println()
	if len(r.regret) == 0 {
		fmt.Printf("regret report: %s rejected nothing that was referenced again (%d signatures tracked)\n",
			r.label, r.tracked)
		return nil
	}
	t := metrics.NewTable(
		fmt.Sprintf("regret report: top %d rejected-then-re-referenced signatures under %s (%d tracked)",
			len(r.regret), r.label, r.tracked),
		"query id", "rejections", "rerefs", "cost forgone", "last profit", "last θ·bar")
	for _, g := range r.regret {
		lastBar := "-"
		lastProfit := "-"
		if g.LastTheta != 0 || g.LastBar != 0 || g.LastProfit != 0 {
			lastProfit = fmt.Sprintf("%.4g", g.LastProfit)
			theta := g.LastTheta
			if theta == 0 {
				theta = 1
			}
			lastBar = fmt.Sprintf("%.4g", theta*g.LastBar)
		}
		t.AddRow(clipID(g.ID, 64),
			fmt.Sprint(g.Rejections),
			fmt.Sprint(g.Rerefs),
			fmt.Sprintf("%.1f", g.CostForgone),
			lastProfit, lastBar)
	}
	return t.Render(os.Stdout)
}

// clipID shortens a compressed query signature for table display; the
// full ID remains queryable via /v1/explain/{id}.
func clipID(id string, max int) string {
	// Compressed IDs join tokens with a control-character separator
	// (core.CompressID); render it as a space so the table stays readable
	// and every byte occupies one display column.
	b := []byte(id)
	for i, c := range b {
		if c < 0x20 {
			b[i] = ' '
		}
	}
	if len(b) <= max {
		return string(b)
	}
	return string(b[:max-3]) + "..."
}

// compareWhatIf runs one real LNC-RA replay with the ghost matrix riding
// its event stream (blocking mode, so nothing is shed) and renders the
// estimated CSR of every (capacity, policy) cell, the sampling coverage
// and the advisor verdict — the offline validation harness for the same
// matrix `serve -whatif` runs live.
func compareWhatIf(tr *trace.Trace, capacity int64, k, window, sampleRate int) error {
	res, rep, err := sim.ReplayWhatIf(tr,
		core.Config{Capacity: capacity, K: k, Policy: core.LNCRA},
		whatif.Config{
			SampleRate: sampleRate,
			TuneWindow: max(admission.MinWindow, window/sampleRate),
		})
	if err != nil {
		return fmt.Errorf("compare: %w", err)
	}

	cols := []string{"policy"}
	if len(rep.Curves) > 0 {
		for _, pt := range rep.Curves[0].Points {
			cols = append(cols, fmt.Sprintf("%gx cap", pt.Scale))
		}
	}
	t := metrics.NewTable(
		fmt.Sprintf("what-if ghost matrix on %s, cache %s, K=%d, sampling 1/%d (estimated CSR per modeled capacity)",
			tr.Name, metrics.Bytes(capacity), k, rep.SampleRate),
		cols...)
	for _, cv := range rep.Curves {
		cells := []string{cv.Policy}
		for _, pt := range cv.Points {
			cells = append(cells, metrics.Ratio(pt.CSR))
		}
		t.AddRow(cells...)
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\nreal replay: %s CSR %s over %d refs; ghosts replayed %d of %d refs (%.1f%% sampled, %d shed)\n",
		res.Policy, metrics.Ratio(res.CSR()), res.Stats.References,
		rep.RefsApplied, rep.RefsSeen, 100*rep.SampledRatio, rep.RefsShed)
	fmt.Printf("advisor (margin %.3f, baseline %s): %s\n", rep.Advisor.Margin, rep.Advisor.BaselinePolicy, rep.Advisor.Reason)
	return nil
}

// compareRestart runs the warm-vs-cold restart experiment and renders its
// second-half accounting: the uninterrupted run is the upper bound, the
// cold restart is what a restart costs without persistence, and the warm
// row shows how much of the gap the snapshot round trip recovers.
func compareRestart(tr *trace.Trace, capacity int64, k int) error {
	res, err := sim.ReplayRestart(tr, core.Config{Capacity: capacity, K: k, Policy: core.LNCRA})
	if err != nil {
		return fmt.Errorf("compare: %w", err)
	}
	t := metrics.NewTable(
		fmt.Sprintf("warm-vs-cold restart on %s (restart after %d of %d queries), cache %s, K=%d",
			tr.Name, res.Split, tr.Len(), metrics.Bytes(capacity), k),
		"run", "2nd-half cost savings", "2nd-half hit ratio", "Δ CSR vs uninterrupted")
	base := res.Uninterrupted.CostSavingsRatio()
	row := func(label string, st core.Stats) {
		t.AddRow(label,
			metrics.Ratio(st.CostSavingsRatio()),
			metrics.Ratio(st.HitRatio()),
			fmt.Sprintf("%+.4f", st.CostSavingsRatio()-base))
	}
	row("uninterrupted", res.Uninterrupted)
	row("warm restart (snapshot+restore)", res.Warm)
	row("cold restart", res.Cold)
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\nsnapshot: %d resident sets, %s encoded; restored %d resident\n",
		res.SnapshotResident, metrics.Bytes(int64(res.SnapshotBytes)), res.RestoredResident)
	return nil
}

// compareOne replays the trace under one named policy with a telemetry
// registry attached for the per-class breakdown. The name
// "lnc-ra-adaptive" (or "adaptive") selects the shadow-tuned admitter and
// "lnc-ra-derive" (or "derive") the semantic derivation subsystem;
// everything else resolves through core.ParsePolicy.
func compareOne(tr *trace.Trace, name string, capacity int64, k, window int, explain bool) (compareRow, error) {
	reg := telemetry.NewRegistry()
	// With -explain, a regret tracker rides the same event stream as the
	// registry; finish stamps its report onto the finished row.
	var tracker *flight.RegretTracker
	var sink core.EventSink
	if explain {
		tracker = flight.NewRegretTracker(0)
		sink = tracker
	}
	finish := func(row compareRow) compareRow {
		if tracker != nil {
			row.regret = tracker.Top(regretTopK)
			row.tracked = tracker.Tracked()
		}
		return row
	}
	cfg := core.Config{Capacity: capacity, K: k, Sink: core.MultiSink(sink, reg)}
	suffix := ""
	switch strings.ToLower(name) {
	case "lnc-ra-adaptive", "lncra-adaptive", "adaptive":
		res, _, err := sim.ReplayAdaptive(tr, cfg, admission.Config{Window: window})
		if err != nil {
			return compareRow{}, err
		}
		return finish(compareRow{label: res.Policy, stats: res.Stats, classes: reg.Snapshot().Classes, adaptive: &res}), nil
	case "lnc-ra-derive", "lncra-derive", "derive":
		if !tr.HasPlans() {
			return compareRow{}, fmt.Errorf(
				"policy %s needs plan descriptors, but trace %q carries none: regenerate it with a descriptor-aware workload (e.g. 'watchman trace -benchmark drilldown') or replay a policy without derivation",
				name, tr.Name)
		}
		cfg.Policy = core.LNCRA
		cfg.Deriver = derive.New(derive.Config{})
		suffix = "+derive"
	default:
		pk, err := core.ParsePolicy(name)
		if err != nil {
			return compareRow{}, err
		}
		cfg.Policy = pk
	}
	res, _, err := sim.Replay(tr, cfg)
	if err != nil {
		return compareRow{}, err
	}
	return finish(compareRow{label: res.Policy + suffix, stats: res.Stats, classes: reg.Snapshot().Classes}), nil
}
