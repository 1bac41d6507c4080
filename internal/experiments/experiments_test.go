package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// smallSuite keeps the runners fast: 4 000 queries (enough for the traces'
// repeat structure to emerge), 400 for the buffer run.
func smallSuite() *Suite {
	return NewSuite(Options{Queries: 4000, BufferQueries: 400, Seed: 21})
}

func TestFigure2Shape(t *testing.T) {
	s := smallSuite()
	tb, err := s.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want TPC-D and Set Query", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		csr, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		hr, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if csr <= 0 || csr >= 1 || hr <= 0 || hr >= 1 {
			t.Fatalf("degenerate infinite-cache row: %v", row)
		}
	}
	// The paper's Figure 2 signature: Set Query has the lower HR but the
	// higher CSR (its cost distribution is more skewed).
	sqCSR, _ := strconv.ParseFloat(tb.Rows[1][1], 64)
	tdCSR, _ := strconv.ParseFloat(tb.Rows[0][1], 64)
	sqHR, _ := strconv.ParseFloat(tb.Rows[1][2], 64)
	tdHR, _ := strconv.ParseFloat(tb.Rows[0][2], 64)
	if !(sqCSR > tdCSR && sqHR < tdHR) {
		t.Fatalf("Figure 2 signature broken: tpcd (%.3f, %.3f) sq (%.3f, %.3f)",
			tdCSR, tdHR, sqCSR, sqHR)
	}
}

func TestFigure3Shape(t *testing.T) {
	tbs, err := smallSuite().Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbs) != 2 {
		t.Fatalf("tables = %d", len(tbs))
	}
	for _, tb := range tbs {
		if len(tb.Rows) != 5 {
			t.Fatalf("K rows = %d, want 5", len(tb.Rows))
		}
		if tb.Columns[1] != "LNC-RA" || tb.Columns[2] != "LRU-K" {
			t.Fatalf("columns = %v", tb.Columns)
		}
	}
}

func TestFigure4And5ShareSweep(t *testing.T) {
	s := smallSuite()
	f4, err := s.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	f5, err := s.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	for _, tbs := range [][]*metrics.Table{f4, f5} {
		for _, tb := range tbs {
			if len(tb.Rows) != len(standardPcts) {
				t.Fatalf("sweep rows = %d", len(tb.Rows))
			}
			for _, col := range []string{"LNC-RA", "LNC-R", "LRU", "inf"} {
				if !strings.Contains(strings.Join(tb.Columns, " "), col) {
					t.Fatalf("missing column %s in %v", col, tb.Columns)
				}
			}
		}
	}
	// CSR at every point must not exceed the infinite bound (last column).
	for _, tb := range f4 {
		for _, row := range tb.Rows {
			inf, _ := strconv.ParseFloat(row[len(row)-1], 64)
			for i := 1; i < len(row)-1; i++ {
				v, _ := strconv.ParseFloat(row[i], 64)
				if v > inf+1e-9 {
					t.Fatalf("CSR %v exceeds infinite bound %v in row %v", v, inf, row)
				}
			}
		}
	}
}

func TestFigure6Shape(t *testing.T) {
	tbs, err := smallSuite().Figure6()
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tbs {
		for _, row := range tb.Rows {
			for i := 1; i < len(row); i++ {
				util, err := strconv.ParseFloat(row[i], 64)
				if err != nil {
					t.Fatal(err)
				}
				if util < 0 || util > 100 {
					t.Fatalf("utilization %v out of range in %v", util, row)
				}
			}
		}
	}
}

func TestFigure7Shape(t *testing.T) {
	tb, err := smallSuite().Figure7()
	if err != nil {
		t.Fatal(err)
	}
	// One baseline row plus the p0 sweep.
	if len(tb.Rows) != 1+len(Figure7P0s) {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if tb.Rows[0][0] != "no hints" {
		t.Fatalf("first row = %v", tb.Rows[0])
	}
}

func TestOptimality(t *testing.T) {
	tb, err := smallSuite().Optimality(40, 10)
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := strconv.ParseFloat(tb.Rows[0][2], 64)
	if err != nil {
		t.Fatal(err)
	}
	// The greedy LNC* must come close to the exhaustive optimum on random
	// universes (Theorem 1 holds exactly only under exact fill).
	if ratio < 0.9 {
		t.Fatalf("mean LNC*/OPT = %.4f, suspiciously low", ratio)
	}
	if ratio > 1.0+1e-9 {
		t.Fatalf("greedy cannot beat the optimum: %v", ratio)
	}
}

func TestAblationRetained(t *testing.T) {
	tb, err := smallSuite().AblationRetained()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

// TestAblationStrictTiers is ablation A6: the literal Figure-1 tier loop
// (all sets with one recorded reference first, then two, …) against the
// default profit-only LNC order. On TPC-D at 1 % cache the strict loop
// inverts the paper's Figure 3 trend — its CSR falls from K=1 to K=4 —
// while the default order does not (docs/POLICIES.md has the numbers).
func TestAblationStrictTiers(t *testing.T) {
	tr, err := smallSuite().TPCD()
	if err != nil {
		t.Fatal(err)
	}
	capacity := sim.CacheBytesForFraction(tr, 1)
	csr := func(k int, strict bool) float64 {
		res, _, err := sim.Replay(tr, core.Config{Capacity: capacity, K: k, Policy: core.LNCRA, StrictTiers: strict})
		if err != nil {
			t.Fatal(err)
		}
		return res.CSR()
	}
	strict1, strict4 := csr(1, true), csr(4, true)
	default1, default4 := csr(1, false), csr(4, false)
	t.Logf("CSR K=1 → K=4: strict %.3f → %.3f, default %.3f → %.3f", strict1, strict4, default1, default4)
	if strict4 >= strict1 {
		t.Errorf("strict tiers: CSR %.3f at K=4 not below %.3f at K=1; the inversion is gone", strict4, strict1)
	}
	if default4 < default1 {
		t.Errorf("default order: CSR %.3f at K=4 below %.3f at K=1; the default inverts too", default4, default1)
	}
}

func TestBaselines(t *testing.T) {
	tb, err := smallSuite().Baselines()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 12 { // 6 policies × 2 traces
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// LNC-RA must top vanilla LRU on both traces.
	byKey := map[string]float64{}
	for _, row := range tb.Rows {
		v, _ := strconv.ParseFloat(row[2], 64)
		byKey[row[0]+"/"+row[1]] = v
	}
	for _, tr := range []string{"TPC-D", "Set Query"} {
		if byKey[tr+"/LNC-RA"] <= byKey[tr+"/LRU"] {
			t.Fatalf("%s: LNC-RA %.3f not above LRU %.3f", tr, byKey[tr+"/LNC-RA"], byKey[tr+"/LRU"])
		}
	}
}

func TestMulticlass(t *testing.T) {
	tb, err := smallSuite().Multiclass()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}
