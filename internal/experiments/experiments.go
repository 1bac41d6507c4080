// Package experiments reproduces every table and figure of the paper's
// evaluation (§4) plus the ablations and extensions: retained information
// (A2), multiclass (A4) and the related-work baselines (A5). Each runner
// returns a metrics.Table shaped like the paper's artifact; cmd/watchman
// drives this package, and its tests check each table's shape. Ablation
// A6, strict tiers, is a test here; docs/POLICIES.md records its numbers.
package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/relation"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Options scales the experiment suite. The zero value reproduces the
// paper's setup (17 000 queries); the databases are always the paper's
// 30 MB TPC-D and 100 MB Set Query (workload.TPCDScale, SetQueryScale).
type Options struct {
	// Queries is the trace length; 0 selects the paper's 17 000.
	Queries int
	// Seed drives workload generation; runs with equal seeds are
	// bit-identical.
	Seed int64
	// BufferQueries is the trace length of the Figure 7 run; 0 selects
	// Queries. The Figure 7 run streams tens of millions of page
	// references, so benchmarks may want a smaller value.
	BufferQueries int
}

// Suite generates and memoizes the traces and sweeps shared by the
// experiment runners. It is not safe for concurrent use.
type Suite struct {
	opts     Options
	tpcd     *trace.Trace
	setquery *trace.Trace
	sweeps   map[string][]sim.SweepPoint
}

// NewSuite creates a suite with the given options.
func NewSuite(opts Options) *Suite {
	if opts.Queries <= 0 {
		opts.Queries = 17000
	}
	if opts.BufferQueries <= 0 {
		opts.BufferQueries = opts.Queries
	}
	return &Suite{opts: opts, sweeps: make(map[string][]sim.SweepPoint)}
}

// TPCD returns the memoized TPC-D trace.
func (s *Suite) TPCD() (*trace.Trace, error) {
	if s.tpcd == nil {
		_, tr, err := workload.StandardTPCD(workload.TPCDScale, workload.Config{
			Queries: s.opts.Queries,
			Seed:    s.opts.Seed + 1,
		})
		if err != nil {
			return nil, err
		}
		s.tpcd = tr
	}
	return s.tpcd, nil
}

// SetQuery returns the memoized Set Query trace.
func (s *Suite) SetQuery() (*trace.Trace, error) {
	if s.setquery == nil {
		_, tr, err := workload.StandardSetQuery(workload.SetQueryScale, workload.Config{
			Queries: s.opts.Queries,
			Seed:    s.opts.Seed + 2,
		})
		if err != nil {
			return nil, err
		}
		s.setquery = tr
	}
	return s.setquery, nil
}

// traces returns both benchmark traces with their display names.
func (s *Suite) traces() ([]*trace.Trace, []string, error) {
	td, err := s.TPCD()
	if err != nil {
		return nil, nil, err
	}
	sq, err := s.SetQuery()
	if err != nil {
		return nil, nil, err
	}
	return []*trace.Trace{td, sq}, []string{"TPC-D", "Set Query"}, nil
}

// standardConfigs are the policies of Figures 4–6: LNC-RA and LNC-R with
// K = 4 and vanilla LRU (K = 1), as in §4.2.
func standardConfigs() []core.Config {
	return []core.Config{
		{Policy: core.LNCRA, K: 4},
		{Policy: core.LNCR, K: 4},
		{Policy: core.LRU, K: 1},
	}
}

// standardPcts is the cache-size sweep of Figures 4–5 (0.1 % – 5 % of the
// database size).
var standardPcts = []float64{0.1, 0.2, 0.5, 1, 2, 3, 4, 5}

// fragPcts is the Figure 6 sweep.
var fragPcts = []float64{0.2, 0.5, 1, 2, 3, 4, 5}

// sweep memoizes the standard sweep for a trace.
func (s *Suite) sweep(tr *trace.Trace) ([]sim.SweepPoint, error) {
	if pts, ok := s.sweeps[tr.Name]; ok {
		return pts, nil
	}
	pts, err := sim.Sweep(tr, standardPcts, standardConfigs())
	if err != nil {
		return nil, err
	}
	s.sweeps[tr.Name] = pts
	return pts, nil
}

// Figure2 reproduces the infinite-cache table: CSR, HR and required cache
// size for both traces.
func (s *Suite) Figure2() (*metrics.Table, error) {
	traces, names, err := s.traces()
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable("Figure 2: performance with infinite cache",
		"trace", "CSR", "HR", "cache size", "db size")
	for i, tr := range traces {
		// Any policy gives the same hits with infinite space; LNC-RA
		// matches the paper's setup.
		res, _, err := sim.Replay(tr, core.Config{Capacity: core.Unlimited, K: 4, Policy: core.LNCRA})
		if err != nil {
			return nil, err
		}
		st := trace.ComputeStats(tr)
		t.AddRow(names[i],
			metrics.Ratio(res.CSR()),
			metrics.Ratio(res.HR()),
			metrics.Bytes(st.UniqueBytes),
			metrics.Bytes(tr.DatabaseBytes))
	}
	return t, nil
}

// Figure3 reproduces the impact-of-K experiment: CSR of LNC-RA and LRU-K
// for K = 1…5 with the cache at 1 % of the database size.
func (s *Suite) Figure3() ([]*metrics.Table, error) {
	traces, names, err := s.traces()
	if err != nil {
		return nil, err
	}
	var tables []*metrics.Table
	for i, tr := range traces {
		capacity := sim.CacheBytesForFraction(tr, 1)
		lnc := &metrics.Series{Name: "LNC-RA"}
		lruk := &metrics.Series{Name: "LRU-K"}
		for k := 1; k <= 5; k++ {
			r1, _, err := sim.Replay(tr, core.Config{Capacity: capacity, K: k, Policy: core.LNCRA})
			if err != nil {
				return nil, err
			}
			r2, _, err := sim.Replay(tr, core.Config{Capacity: capacity, K: k, Policy: core.LRUK})
			if err != nil {
				return nil, err
			}
			lnc.Add(float64(k), r1.CSR())
			lruk.Add(float64(k), r2.CSR())
		}
		tb, err := metrics.SeriesTable(
			fmt.Sprintf("Figure 3 (%s): impact of K on CSR, cache = 1%% of database", names[i]),
			"K", "%.3f", lnc, lruk)
		if err != nil {
			return nil, err
		}
		tables = append(tables, tb)
	}
	return tables, nil
}

// Figure4 reproduces the cost-savings-ratio curves: CSR over cache sizes
// for LNC-RA, LNC-R, LRU and the infinite-cache bound.
func (s *Suite) Figure4() ([]*metrics.Table, error) {
	return s.sweepTables("Figure 4", "cost savings ratio", sim.Result.CSR,
		func(st trace.Stats) float64 { return st.MaxCostSavings })
}

// Figure5 reproduces the hit-ratio curves over the same sweep.
func (s *Suite) Figure5() ([]*metrics.Table, error) {
	return s.sweepTables("Figure 5", "hit ratio", sim.Result.HR,
		func(st trace.Stats) float64 { return st.MaxHitRatio })
}

// sweepTables renders one table per trace for a metric over the standard
// sweep, appending the infinite-cache bound as a final column.
func (s *Suite) sweepTables(figure, metric string, value func(sim.Result) float64, bound func(trace.Stats) float64) ([]*metrics.Table, error) {
	traces, names, err := s.traces()
	if err != nil {
		return nil, err
	}
	var tables []*metrics.Table
	for i, tr := range traces {
		pts, err := s.sweep(tr)
		if err != nil {
			return nil, err
		}
		series := make(map[string]*metrics.Series)
		var order []string
		for _, p := range pts {
			name := p.Config.Policy.String()
			sr, ok := series[name]
			if !ok {
				sr = &metrics.Series{Name: name}
				series[name] = sr
				order = append(order, name)
			}
			sr.Add(p.Pct, value(p.Result))
		}
		inf := &metrics.Series{Name: "inf"}
		st := trace.ComputeStats(tr)
		for _, pct := range standardPcts {
			inf.Add(pct, bound(st))
		}
		list := make([]*metrics.Series, 0, len(order)+1)
		for _, n := range order {
			list = append(list, series[n])
		}
		list = append(list, inf)
		tb, err := metrics.SeriesTable(
			fmt.Sprintf("%s (%s): %s vs cache size (%% of database)", figure, names[i], metric),
			"cache%", "%.3f", list...)
		if err != nil {
			return nil, err
		}
		tables = append(tables, tb)
	}
	return tables, nil
}

// Figure6 reproduces the external-fragmentation experiment: average used
// fraction of the cache for LNC-RA, LNC-R and LRU.
func (s *Suite) Figure6() ([]*metrics.Table, error) {
	traces, names, err := s.traces()
	if err != nil {
		return nil, err
	}
	var tables []*metrics.Table
	for i, tr := range traces {
		var list []*metrics.Series
		for _, cfg := range standardConfigs() {
			sr := &metrics.Series{Name: cfg.Policy.String()}
			for _, pct := range fragPcts {
				cfg.Capacity = sim.CacheBytesForFraction(tr, pct)
				res, _, err := sim.Replay(tr, cfg)
				if err != nil {
					return nil, err
				}
				sr.Add(pct, 100*res.Stats.AvgUtilization())
			}
			list = append(list, sr)
		}
		tb, err := metrics.SeriesTable(
			fmt.Sprintf("Figure 6 (%s): cache space utilization %% vs cache size", names[i]),
			"cache%", "%.1f", list...)
		if err != nil {
			return nil, err
		}
		tables = append(tables, tb)
	}
	return tables, nil
}

// Figure7P0s is the hint-threshold sweep of Figure 7, in percent.
var Figure7P0s = []float64{100, 80, 60, 40, 20, 0}

// Figure7 reproduces the buffer-manager interaction experiment: buffer
// pool hit ratio as the p₀ redundancy threshold decreases, with a no-hints
// baseline. The setup matches §4.2: 17 000 queries against 14 relations
// totaling 100 MB, a 15 MB buffer pool and a 15 MB WATCHMAN cache.
func (s *Suite) Figure7() (*metrics.Table, error) {
	db := relation.Warehouse(1, relation.DefaultPageSize)
	templates := workload.WarehouseTemplates(db)
	t := metrics.NewTable("Figure 7: effect of hints on buffer hit ratio (15 MB pool, 15 MB cache)",
		"p0", "buffer HR", "page refs", "hints", "demotions")

	base := sim.BufferSimConfig{
		Queries: s.opts.BufferQueries,
		Seed:    s.opts.Seed + 7,
		P0:      -1, // hints disabled
	}
	res, err := sim.RunBufferSim(db, templates, base)
	if err != nil {
		return nil, err
	}
	t.AddRow("no hints", metrics.Ratio(res.BufferHitRatio()),
		fmt.Sprint(res.PageReferences), "0", "0")

	for _, p0 := range Figure7P0s {
		cfg := base
		cfg.P0 = p0 / 100
		res, err := sim.RunBufferSim(db, templates, cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.0f%%", p0),
			metrics.Ratio(res.BufferHitRatio()),
			fmt.Sprint(res.PageReferences),
			fmt.Sprint(res.HintsSent),
			fmt.Sprint(res.PagesDemoted))
	}
	return t, nil
}

// Optimality exercises §2.3: it generates random retrieved-set universes,
// compares the LNC* greedy selection against the exhaustive knapsack
// optimum, and reports how close the greedy objective gets.
func (s *Suite) Optimality(universes, itemsPer int) (*metrics.Table, error) {
	if universes <= 0 {
		universes = 200
	}
	if itemsPer <= 0 || itemsPer > 16 {
		itemsPer = 12
	}
	rng := rand.New(rand.NewSource(s.opts.Seed + 23))
	t := metrics.NewTable("§2.3: LNC* vs exhaustive knapsack optimum",
		"universes", "items", "mean savings ratio LNC*/OPT", "worst", "exact ties")
	var sum, worst float64
	worst = 1
	ties := 0
	for u := 0; u < universes; u++ {
		items := make([]core.Item, itemsPer)
		var total int64
		for i := range items {
			items[i] = core.Item{
				ID:   fmt.Sprintf("rs%d", i),
				Prob: rng.Float64(),
				Cost: 1 + rng.Float64()*999,
				Size: 1 + rng.Int63n(99),
			}
			total += items[i].Size
		}
		capacity := total / 3
		greedy := core.LNCStar(items, capacity)
		opt, err := core.OptimalKnapsack(items, capacity)
		if err != nil {
			return nil, err
		}
		g := core.ExpectedCostSavings(items, greedy)
		o := core.ExpectedCostSavings(items, opt)
		ratio := 1.0
		if o > 0 {
			ratio = g / o
		}
		sum += ratio
		if ratio < worst {
			worst = ratio
		}
		if ratio > 0.999999 {
			ties++
		}
	}
	t.AddRow(fmt.Sprint(universes), fmt.Sprint(itemsPer),
		fmt.Sprintf("%.4f", sum/float64(universes)),
		fmt.Sprintf("%.4f", worst),
		fmt.Sprintf("%d/%d", ties, universes))
	return t, nil
}

// AblationRetained contrasts LNC-RA with and without retained reference
// information (ablation A2): without it, re-referenced sets restart with
// empty windows and keep getting evicted (§2.4's starvation).
func (s *Suite) AblationRetained() (*metrics.Table, error) {
	traces, names, err := s.traces()
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable("Ablation A2: retained reference information (LNC-RA, K=4)",
		"trace", "cache%", "CSR retained", "CSR disabled")
	for i, tr := range traces {
		for _, pct := range []float64{0.5, 1} {
			capacity := sim.CacheBytesForFraction(tr, pct)
			on, _, err := sim.Replay(tr, core.Config{Capacity: capacity, K: 4, Policy: core.LNCRA})
			if err != nil {
				return nil, err
			}
			off, _, err := sim.Replay(tr, core.Config{Capacity: capacity, K: 4, Policy: core.LNCRA, DisableRetainedInfo: true})
			if err != nil {
				return nil, err
			}
			t.AddRow(names[i], fmt.Sprintf("%.1f", pct),
				metrics.Ratio(on.CSR()), metrics.Ratio(off.CSR()))
		}
	}
	return t, nil
}

// Multiclass runs the §6 extension: a three-class TPC-D stream with bursty
// per-class activity, where retaining K > 1 reference times should matter
// more than in the single-class traces.
func (s *Suite) Multiclass() (*metrics.Table, error) {
	_, tr, err := workload.GenerateMulticlass(workload.TPCDScale, workload.Config{Queries: s.opts.Queries, Seed: s.opts.Seed + 11})
	if err != nil {
		return nil, err
	}
	capacity := sim.CacheBytesForFraction(tr, 1)
	lnc := &metrics.Series{Name: "LNC-RA"}
	lruk := &metrics.Series{Name: "LRU-K"}
	for k := 1; k <= 5; k++ {
		r1, _, err := sim.Replay(tr, core.Config{Capacity: capacity, K: k, Policy: core.LNCRA})
		if err != nil {
			return nil, err
		}
		r2, _, err := sim.Replay(tr, core.Config{Capacity: capacity, K: k, Policy: core.LRUK})
		if err != nil {
			return nil, err
		}
		lnc.Add(float64(k), r1.CSR())
		lruk.Add(float64(k), r2.CSR())
	}
	return metrics.SeriesTable(
		"Extension A4: multiclass workload, CSR vs K (cache = 1% of database)",
		"K", "%.3f", lnc, lruk)
}

// Baselines compares the related-work policies (LFU and the ADMS LCS) with
// the paper's algorithms at 1 % cache (experiment A5).
func (s *Suite) Baselines() (*metrics.Table, error) {
	traces, names, err := s.traces()
	if err != nil {
		return nil, err
	}
	cfgs := []core.Config{
		{Policy: core.LNCRA, K: 4},
		{Policy: core.LNCR, K: 4},
		{Policy: core.LRUK, K: 4},
		{Policy: core.LRU, K: 1},
		{Policy: core.LFU, K: 1},
		{Policy: core.LCS, K: 1},
	}
	t := metrics.NewTable("A5: baseline comparison at cache = 1% of database",
		"trace", "policy", "CSR", "HR")
	for i, tr := range traces {
		capacity := sim.CacheBytesForFraction(tr, 1)
		for _, cfg := range cfgs {
			cfg.Capacity = capacity
			res, _, err := sim.Replay(tr, cfg)
			if err != nil {
				return nil, err
			}
			t.AddRow(names[i], cfg.Policy.String(),
				metrics.Ratio(res.CSR()), metrics.Ratio(res.HR()))
		}
	}
	return t, nil
}
