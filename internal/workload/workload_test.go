package workload

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/trace"
)

// smallCfg keeps generation fast in tests.
var smallCfg = Config{Queries: 1200, Seed: 7}

func TestTPCDTemplateCount(t *testing.T) {
	db := relation.TPCD(0.005, 0)
	ts := TPCDTemplates(db)
	if len(ts) != 17 {
		t.Fatalf("TPC-D must have 17 templates (the benchmark's read-only set), got %d", len(ts))
	}
	seen := map[string]bool{}
	for _, tpl := range ts {
		if seen[tpl.Name] {
			t.Fatalf("duplicate template name %s", tpl.Name)
		}
		seen[tpl.Name] = true
		if !strings.HasPrefix(tpl.Name, "tpcd.q") {
			t.Fatalf("unexpected template name %s", tpl.Name)
		}
	}
}

func TestAllTemplatesProduceValidPlans(t *testing.T) {
	cases := []struct {
		name string
		db   *relation.Database
		ts   []*Template
	}{
		{"tpcd", relation.TPCD(0.005, 0), nil},
		{"setquery", relation.SetQuery(0.01, 0), nil},
	}
	cases[0].ts = TPCDTemplates(cases[0].db)
	cases[1].ts = SetQueryTemplates(cases[1].db)

	for _, c := range cases {
		eng := engine.New(c.db)
		rng := rand.New(rand.NewSource(1))
		for _, tpl := range c.ts {
			for i := 0; i < 20; i++ {
				q := tpl.Gen(rng)
				if q.ID == "" {
					t.Fatalf("%s/%s: empty query ID", c.name, tpl.Name)
				}
				est, err := eng.Estimate(q.Plan)
				if err != nil {
					t.Fatalf("%s/%s: %v", c.name, tpl.Name, err)
				}
				if est.Cost < 0 || est.Rows < 0 {
					t.Fatalf("%s/%s: negative estimate %+v", c.name, tpl.Name, est)
				}
				if len(engine.BaseRelations(q.Plan)) == 0 {
					t.Fatalf("%s/%s: plan reads no relations", c.name, tpl.Name)
				}
			}
		}
	}
}

func TestTemplateIDsEmbedParameters(t *testing.T) {
	// Two different draws from a huge-space template must (almost surely)
	// give different IDs; re-seeding gives identical sequences.
	db := relation.TPCD(0.005, 0)
	ts := TPCDTemplates(db)
	var q16 *Template
	for _, tpl := range ts {
		if tpl.Name == "tpcd.q16" {
			q16 = tpl
		}
	}
	a := q16.Gen(rand.New(rand.NewSource(1)))
	b := q16.Gen(rand.New(rand.NewSource(2)))
	if a.ID == b.ID {
		t.Fatal("different parameters produced identical IDs")
	}
	c := q16.Gen(rand.New(rand.NewSource(1)))
	if a.ID != c.ID {
		t.Fatal("same seed produced different IDs")
	}
}

func TestGenerateTrace(t *testing.T) {
	db, tr, err := StandardTPCD(0.005, smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != smallCfg.Queries {
		t.Fatalf("trace has %d records", tr.Len())
	}
	if tr.DatabaseBytes != db.Bytes() {
		t.Fatal("trace database size mismatch")
	}
	// Memoization: equal IDs must carry equal size/cost.
	sizes := map[string]int64{}
	costs := map[string]float64{}
	for i := range tr.Records {
		r := &tr.Records[i]
		if s, ok := sizes[r.QueryID]; ok && s != r.Size {
			t.Fatalf("query %q has sizes %d and %d", r.QueryID, s, r.Size)
		}
		if c, ok := costs[r.QueryID]; ok && c != r.Cost {
			t.Fatalf("query %q has costs %g and %g", r.QueryID, c, r.Cost)
		}
		sizes[r.QueryID] = r.Size
		costs[r.QueryID] = r.Cost
		if r.Cost < 1 {
			t.Fatalf("cost %g below one block read", r.Cost)
		}
		if len(r.Relations) == 0 {
			t.Fatal("record without base relations")
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	_, a, err := StandardTPCD(0.005, smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := StandardTPCD(0.005, smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a.Records {
		if a.Records[i].QueryID != b.Records[i].QueryID || a.Records[i].Time != b.Records[i].Time {
			t.Fatalf("record %d differs between identically seeded runs", i)
		}
	}
	_, c, err := StandardTPCD(0.005, Config{Queries: smallCfg.Queries, Seed: smallCfg.Seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for i := range a.Records {
		if a.Records[i].QueryID != c.Records[i].QueryID {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestDrillDownSkew(t *testing.T) {
	// The defining property of the paper's traces: some templates repeat
	// heavily, others essentially never.
	_, tr, err := StandardTPCD(0.005, Config{Queries: 4000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	type agg struct{ refs, unique int }
	per := map[string]*agg{}
	seen := map[string]bool{}
	for i := range tr.Records {
		r := &tr.Records[i]
		a := per[r.Template]
		if a == nil {
			a = &agg{}
			per[r.Template] = a
		}
		a.refs++
		if !seen[r.QueryID] {
			seen[r.QueryID] = true
			a.unique++
		}
	}
	// q13 has 4 instances: repetition ratio must be very high.
	if q13 := per["tpcd.q13"]; q13 == nil || q13.unique > 4 || q13.refs < 50 {
		t.Fatalf("q13 skew wrong: %+v", q13)
	}
	// q16's space is ~5M: virtually every instance unique.
	if q16 := per["tpcd.q16"]; q16 == nil || float64(q16.unique) < 0.95*float64(q16.refs) {
		t.Fatalf("q16 must be effectively unique: %+v", q16)
	}
}

func TestSetQueryWeights(t *testing.T) {
	// The down-weighted templates (q2b, q4 at 0.5) must appear roughly
	// half as often as the up-weighted ones appear 1.5×.
	_, tr, err := StandardSetQuery(0.02, Config{Queries: 8000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := range tr.Records {
		counts[tr.Records[i].Template]++
	}
	if counts["sq.q4"] >= counts["sq.q1"] {
		t.Fatalf("q4 (weight 0.5) drawn %d ≥ q1 (weight 1) %d", counts["sq.q4"], counts["sq.q1"])
	}
	if counts["sq.q5"] <= counts["sq.q1"] {
		t.Fatalf("q5 (weight 1.5) drawn %d ≤ q1 (weight 1) %d", counts["sq.q5"], counts["sq.q1"])
	}
}

func TestSetQueryCostSkewExceedsTPCD(t *testing.T) {
	// §4.2's explanation of Figure 2: the Set Query cost distribution is
	// more skewed than TPC-D's. Compare max/min template mean costs.
	_, td, err := StandardTPCD(0.005, Config{Queries: 3000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	_, sq, err := StandardSetQuery(0.02, Config{Queries: 3000, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	spread := func(tr *trace.Trace) float64 {
		min, max := 1e18, 0.0
		for i := range tr.Records {
			c := tr.Records[i].Cost
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		return max / min
	}
	if spread(sq) <= spread(td) {
		t.Fatalf("Set Query cost spread %.1f must exceed TPC-D's %.1f", spread(sq), spread(td))
	}
}

func TestInterarrivalTimes(t *testing.T) {
	_, tr, err := StandardTPCD(0.005, Config{Queries: 2000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	mean := tr.Records[tr.Len()-1].Time / float64(tr.Len())
	if mean < 0.75 || mean > 1.25 {
		t.Fatalf("mean inter-arrival = %.2f, want ≈ %d", mean, meanInterarrival)
	}
}

func TestMulticlassStructure(t *testing.T) {
	_, tr, err := GenerateMulticlass(0.005, Config{Queries: 3000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	classes := map[int]int{}
	bursts := 0
	for i := range tr.Records {
		classes[tr.Records[i].Class]++
		if i > 0 && tr.Records[i].QueryID == tr.Records[i-1].QueryID && tr.Records[i].Class == 2 {
			bursts++
		}
	}
	if len(classes) != 3 {
		t.Fatalf("class mix = %v, want 3 classes", classes)
	}
	if bursts < 100 {
		t.Fatalf("only %d correlated duplicates; the noise class must fire bursts", bursts)
	}
	// Class-2 queries must be one-shot beyond their burst: count distinct
	// burst groups vs references.
	refs := map[string]int{}
	for i := range tr.Records {
		if tr.Records[i].Class == 2 {
			refs[tr.Records[i].QueryID]++
		}
	}
	over := 0
	for _, n := range refs {
		if n > 3 {
			over++
		}
	}
	if float64(over) > 0.05*float64(len(refs)) {
		t.Fatalf("%d/%d noise queries exceed the burst length", over, len(refs))
	}
}

func TestGenerateErrors(t *testing.T) {
	db := relation.TPCD(0.005, 0)
	if _, err := Generate(db, nil, smallCfg); err == nil {
		t.Fatal("empty template set must fail")
	}
}

func TestUniformRangeQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(cardRaw, widthRaw uint16) bool {
		card := int64(cardRaw%1000) + 1
		width := int64(widthRaw%1000) + 1
		lo, hi := uniformRange(rng, card, width)
		if lo < 0 || hi >= card || hi < lo {
			return false
		}
		if width <= card && hi-lo+1 != width {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPickTemplateRespectsWeights(t *testing.T) {
	a := &Template{Name: "a", Weight: 3}
	b := &Template{Name: "b", Weight: 1}
	rng := rand.New(rand.NewSource(4))
	counts := map[string]int{}
	for i := 0; i < 4000; i++ {
		counts[pickTemplate([]*Template{a, b}, 4, rng).Name]++
	}
	ratio := float64(counts["a"]) / float64(counts["b"])
	if ratio < 2.5 || ratio > 3.6 {
		t.Fatalf("weight ratio = %.2f, want ≈ 3", ratio)
	}
}
