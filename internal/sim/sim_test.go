package sim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/trace"
	"repro/internal/workload"
)

func testTrace(t *testing.T, queries int, seed int64) *trace.Trace {
	t.Helper()
	_, tr, err := workload.StandardTPCD(0.005, workload.Config{Queries: queries, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestReplayTotals(t *testing.T) {
	tr := testTrace(t, 1500, 1)
	res, cache, err := Replay(tr, core.Config{Capacity: CacheBytesForFraction(tr, 1), K: 4, Policy: core.LNCRA})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.References != int64(tr.Len()) {
		t.Fatalf("references = %d, want %d", res.Stats.References, tr.Len())
	}
	var totalCost float64
	for i := range tr.Records {
		totalCost += tr.Records[i].Cost
	}
	if math.Abs(res.Stats.CostTotal-totalCost) > 1e-6 {
		t.Fatalf("cost total = %g, want %g", res.Stats.CostTotal, totalCost)
	}
	if err := cache.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInfiniteCacheMatchesTraceBounds(t *testing.T) {
	// The replay's infinite-cache CSR/HR must exactly equal the analytic
	// bounds computed from the trace — a strong end-to-end consistency
	// check between the cache, the simulator and the trace statistics.
	tr := testTrace(t, 2500, 2)
	st := trace.ComputeStats(tr)
	res, _, err := Replay(tr, core.Config{Capacity: core.Unlimited, K: 4, Policy: core.LNCRA})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.CSR()-st.MaxCostSavings) > 1e-9 {
		t.Fatalf("infinite CSR %.6f != bound %.6f", res.CSR(), st.MaxCostSavings)
	}
	if math.Abs(res.HR()-st.MaxHitRatio) > 1e-9 {
		t.Fatalf("infinite HR %.6f != bound %.6f", res.HR(), st.MaxHitRatio)
	}
}

func TestFiniteCacheBelowBounds(t *testing.T) {
	tr := testTrace(t, 2000, 3)
	st := trace.ComputeStats(tr)
	for _, cfg := range []core.Config{
		{Policy: core.LRU, K: 1},
		{Policy: core.LNCR, K: 4},
		{Policy: core.LNCRA, K: 4},
	} {
		cfg.Capacity = CacheBytesForFraction(tr, 1)
		res, _, err := Replay(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.CSR() > st.MaxCostSavings+1e-9 {
			t.Fatalf("%s: CSR %.4f exceeds infinite-cache bound %.4f", res.Policy, res.CSR(), st.MaxCostSavings)
		}
		if res.HR() > st.MaxHitRatio+1e-9 {
			t.Fatalf("%s: HR exceeds bound", res.Policy)
		}
	}
}

func TestLNCRABeatsLRUOnDrillDown(t *testing.T) {
	// The paper's headline claim, as a regression guard: at a small cache
	// LNC-RA must deliver a substantially higher CSR than vanilla LRU.
	tr := testTrace(t, 4000, 4)
	capacity := CacheBytesForFraction(tr, 1)
	lnc, _, err := Replay(tr, core.Config{Capacity: capacity, K: 4, Policy: core.LNCRA})
	if err != nil {
		t.Fatal(err)
	}
	lru, _, err := Replay(tr, core.Config{Capacity: capacity, K: 1, Policy: core.LRU})
	if err != nil {
		t.Fatal(err)
	}
	if lnc.CSR() < 1.3*lru.CSR() {
		t.Fatalf("LNC-RA CSR %.3f not clearly above LRU %.3f", lnc.CSR(), lru.CSR())
	}
}

func TestSweepShape(t *testing.T) {
	tr := testTrace(t, 1200, 5)
	pts, err := Sweep(tr, []float64{0.5, 2}, []core.Config{{Policy: core.LNCRA, K: 2}, {Policy: core.LRU, K: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("sweep points = %d, want 4", len(pts))
	}
	for _, p := range pts {
		if p.Result.Stats.References != int64(tr.Len()) {
			t.Fatal("sweep point did not replay the full trace")
		}
		if p.Config.Capacity != CacheBytesForFraction(tr, p.Pct) || p.Result.CacheBytes != p.Config.Capacity {
			t.Fatalf("sweep point at %.1f%% replayed %d bytes", p.Pct, p.Result.CacheBytes)
		}
	}
}

func TestCacheBytesForFraction(t *testing.T) {
	tr := &trace.Trace{DatabaseBytes: 1 << 20}
	if got := CacheBytesForFraction(tr, 1); got != 10485 {
		t.Fatalf("1%% of 1 MiB = %d", got)
	}
	if got := CacheBytesForFraction(tr, 0.0001); got != 4096 {
		t.Fatalf("tiny fractions clamp to a page: %d", got)
	}
}

func TestBufferSimSmoke(t *testing.T) {
	db := relation.Warehouse(0.1, 0)
	templates := workload.WarehouseTemplates(db)
	base := BufferSimConfig{
		Queries:    400,
		Seed:       6,
		PoolBytes:  4 << 20,
		CacheBytes: 4 << 20,
		P0:         -1,
	}
	noHints, err := RunBufferSim(db, templates, base)
	if err != nil {
		t.Fatal(err)
	}
	if noHints.PageReferences == 0 {
		t.Fatal("no page references recorded")
	}
	if hr := noHints.BufferHitRatio(); hr <= 0 || hr >= 1 {
		t.Fatalf("buffer hit ratio = %g", hr)
	}
	if noHints.HintsSent != 0 || noHints.PagesDemoted != 0 {
		t.Fatal("hints must be disabled at P0 < 0")
	}

	cfg := base
	cfg.P0 = 0.6
	hints, err := RunBufferSim(db, templates, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hints.HintsSent == 0 {
		t.Fatal("no hints sent at P0 = 0.6")
	}
	if hints.CacheStats.Hits == 0 {
		t.Fatal("the WATCHMAN cache should be getting hits")
	}
}

func TestBufferSimDeterminism(t *testing.T) {
	db := relation.Warehouse(0.1, 0)
	templates := workload.WarehouseTemplates(db)
	cfg := BufferSimConfig{Queries: 300, Seed: 8, PoolBytes: 4 << 20, CacheBytes: 4 << 20, P0: 0.5}
	a, err := RunBufferSim(db, templates, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBufferSim(relation.Warehouse(0.1, 0), workload.WarehouseTemplates(relation.Warehouse(0.1, 0)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.BufferStats != b.BufferStats || a.PageReferences != b.PageReferences {
		t.Fatalf("buffer sim not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestBufferSimHintThresholds(t *testing.T) {
	// Selective hints must beat the no-hints baseline, and the degenerate
	// p0 = 0 sweep (every referenced page demoted — the paper's "modified
	// LRU degenerates to MRU" case) must forfeit that benefit.
	db := relation.Warehouse(0.1, 0)
	templates := workload.WarehouseTemplates(db)
	base := BufferSimConfig{Queries: 1500, Seed: 9, PoolBytes: 2 << 20, CacheBytes: 2 << 20}

	run := func(p0 float64) float64 {
		cfg := base
		cfg.P0 = p0
		res, err := RunBufferSim(db, templates, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.BufferHitRatio()
	}
	none := run(-1)
	selective := run(1.0)
	zero := run(0)
	if selective <= none {
		t.Fatalf("selective hints HR %.3f must beat no-hints %.3f", selective, none)
	}
	if zero >= selective {
		t.Fatalf("p0=0 HR %.3f must forfeit the selective-hint benefit %.3f", zero, selective)
	}
}
