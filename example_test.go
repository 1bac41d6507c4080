package watchman_test

import (
	"fmt"

	watchman "repro"
)

// The README's derivation snippet: a reference carrying its plan, size and
// remote cost is answered from a cached set whose plan subsumes it.
func ExampleNewDeriver() {
	deriver := watchman.NewDeriver()
	cache, _ := watchman.NewSharded(watchman.ShardedConfig{
		Cache:   watchman.Config{Capacity: 1 << 30, K: 4, Policy: watchman.LNCRA},
		Deriver: deriver,
	})
	year := []watchman.Pred{{Col: "l_shipdate", Op: watchman.OpRange, Lo: 365, Hi: 729}}
	revenue := []watchman.AggSpec{{Kind: watchman.AggSum, Col: "l_extendedprice", As: "revenue"}}
	rels := []string{"lineitem"}

	// Revenue by return flag and line status: executed remotely, admitted.
	cache.Reference(watchman.Request{
		QueryID: "revenue by flag and status, 1993", Size: 8 << 10, Cost: 5000, Relations: rels,
		Plan: &watchman.PlanDescriptor{Rel: "lineitem", Preds: year,
			GroupBy: []string{"l_returnflag", "l_linestatus"}, Aggs: revenue},
	})
	// Revenue by return flag alone rolls up from the cached set.
	hit, _ := cache.Reference(watchman.Request{
		QueryID: "revenue by flag, 1993", Size: 4 << 10, Cost: 5000, Relations: rels,
		Plan: &watchman.PlanDescriptor{Rel: "lineitem", Preds: year,
			GroupBy: []string{"l_returnflag"}, Aggs: revenue},
	})
	st := cache.Stats()
	fmt.Println("hit:", hit)
	fmt.Println("derived hits:", st.DerivedHits, "derive cost:", st.DeriveCost, "cost saved:", st.CostSaved)
	// Output:
	// hit: true
	// derived hits: 1 derive cost: 2 cost saved: 4998
}
