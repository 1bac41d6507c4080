package workload

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/relation"
)

func TestWarehouseTemplatesValid(t *testing.T) {
	db := relation.Warehouse(0.05, 0)
	if len(db.Relations) != 14 {
		t.Fatalf("warehouse must have the paper's 14 relations, got %d", len(db.Relations))
	}
	templates := WarehouseTemplates(db)
	if len(templates) != 14*4 {
		t.Fatalf("templates = %d, want 4 per relation", len(templates))
	}
	eng := engine.New(db)
	rng := rand.New(rand.NewSource(1))
	for _, tpl := range templates {
		for i := 0; i < 5; i++ {
			q := tpl.Gen(rng)
			if _, err := eng.Estimate(q.Plan); err != nil {
				t.Fatalf("%s: %v", tpl.Name, err)
			}
		}
	}
}

func TestWarehouseScale(t *testing.T) {
	db := relation.Warehouse(1, 0)
	gb := float64(db.Bytes())
	if gb < 95e6 || gb > 115e6 {
		t.Fatalf("warehouse scale 1 = %.1f MB, want ≈ 100 MB (the §4.2 setup)", gb/1e6)
	}
}

func TestWarehousePopularitySkew(t *testing.T) {
	// Relation popularity must be skewed: rel00 templates carry the
	// largest weights, the tail the smallest.
	db := relation.Warehouse(0.05, 0)
	templates := WarehouseTemplates(db)
	weightOf := func(rel string) float64 {
		total := 0.0
		for _, tpl := range templates {
			if strings.HasSuffix(tpl.Name, rel) {
				total += tpl.Weight
			}
		}
		return total
	}
	if weightOf("rel00") <= 2*weightOf("rel07") {
		t.Fatalf("popularity skew too weak: rel00 %.2f vs rel07 %.2f",
			weightOf("rel00"), weightOf("rel07"))
	}
}

func TestWarehouseAdhocCharacteristics(t *testing.T) {
	// The ad-hoc templates must produce large retrieved sets relative to
	// their cost (LNC-A rejection material) and effectively never repeat.
	db := relation.Warehouse(0.05, 0)
	templates := WarehouseTemplates(db)
	eng := engine.New(db)
	rng := rand.New(rand.NewSource(2))
	seen := map[string]bool{}
	for _, tpl := range templates {
		if !strings.HasPrefix(tpl.Name, "wh.adhoc.") {
			continue
		}
		distinct := 0
		for i := 0; i < 30; i++ {
			q := tpl.Gen(rng)
			if !seen[q.ID] {
				distinct++
			}
			seen[q.ID] = true
			est, err := eng.Estimate(q.Plan)
			if err != nil {
				t.Fatal(err)
			}
			// e-profit = cost/size must be well under 1 (a groupby's is
			// thousands), so admission refuses these once the cache is full.
			if est.Cost/est.Bytes > 0.1 {
				t.Fatalf("%s: e-profit %.3f too high for the rejection role",
					tpl.Name, est.Cost/est.Bytes)
			}
		}
		// Effectively never repeats: allow the odd birthday collision at
		// this miniature scale.
		if distinct < 28 {
			t.Fatalf("%s: only %d/30 distinct instances", tpl.Name, distinct)
		}
	}
}

func TestWarehouseGroupbyRepeats(t *testing.T) {
	db := relation.Warehouse(0.05, 0)
	templates := WarehouseTemplates(db)
	rng := rand.New(rand.NewSource(3))
	for _, tpl := range templates {
		if !strings.HasPrefix(tpl.Name, "wh.groupby.") {
			continue
		}
		ids := map[string]bool{}
		for i := 0; i < 50; i++ {
			ids[tpl.Gen(rng).ID] = true
		}
		if len(ids) > 3 {
			t.Fatalf("%s: %d distinct instances, want ≤ 3 (heavy repeats)", tpl.Name, len(ids))
		}
	}
}
