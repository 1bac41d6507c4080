package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLNCStarGreedyOrder(t *testing.T) {
	items := []Item{
		{ID: "low", Prob: 0.1, Cost: 10, Size: 10},   // density 0.1
		{ID: "high", Prob: 0.9, Cost: 100, Size: 10}, // density 9
		{ID: "mid", Prob: 0.5, Cost: 20, Size: 10},   // density 1
	}
	sel := LNCStar(items, 20)
	if !sel[1] || !sel[2] || sel[0] {
		t.Fatalf("selection = %v, want the two densest items", sel)
	}
}

func TestLNCStarStopsAtFirstViolation(t *testing.T) {
	// The paper's construction stops when the next item violates the
	// budget (it does not skip ahead).
	items := []Item{
		{ID: "a", Prob: 1, Cost: 100, Size: 8}, // density 12.5
		{ID: "b", Prob: 1, Cost: 50, Size: 8},  // density 6.25, does not fit
		{ID: "c", Prob: 1, Cost: 1, Size: 2},   // density 0.5, would fit
	}
	sel := LNCStar(items, 10)
	if !sel[0] || sel[1] || sel[2] {
		t.Fatalf("selection = %v, want greedy prefix {a} only", sel)
	}
}

func TestLNCStarOptimalUnderExactFill(t *testing.T) {
	// Theorem 1: when every feasible solution fills the cache exactly
	// (equal sizes dividing the capacity), the greedy choice is optimal.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 8 + rng.Intn(5)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{
				ID:   fmt.Sprintf("i%d", i),
				Prob: rng.Float64(),
				Cost: float64(rng.Intn(100) + 1),
				Size: 10, // uniform sizes → exact fill
			}
		}
		capacity := int64(10 * (2 + rng.Intn(n-3)))
		greedy := LNCStar(items, capacity)
		opt, err := OptimalKnapsack(items, capacity)
		if err != nil {
			t.Fatal(err)
		}
		g := ExpectedCostSavings(items, greedy)
		o := ExpectedCostSavings(items, opt)
		if !approxEq(g, o) {
			t.Fatalf("trial %d: greedy %.6f < optimal %.6f under exact fill", trial, g, o)
		}
		if !PackedExactly(items, greedy, capacity) {
			t.Fatalf("trial %d: greedy did not fill the cache exactly", trial)
		}
	}
}

func TestLNCStarNeverExceedsCapacity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 1
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{
				ID:   fmt.Sprintf("i%d", i),
				Prob: rng.Float64(),
				Cost: rng.Float64() * 100,
				Size: rng.Int63n(50) + 1,
			}
		}
		capacity := rng.Int63n(200) + 1
		sel := LNCStar(items, capacity)
		var used int64
		for i := range sel {
			used += items[i].Size
		}
		return used <= capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOptimalKnapsackExhaustive(t *testing.T) {
	items := []Item{
		{ID: "a", Prob: 0.5, Cost: 10, Size: 6}, // value 5
		{ID: "b", Prob: 0.5, Cost: 8, Size: 5},  // value 4
		{ID: "c", Prob: 0.5, Cost: 7, Size: 5},  // value 3.5
	}
	// Capacity 10: greedy takes {a} (density 0.833), optimum is {b, c}
	// with value 7.5 > 5.
	opt, err := OptimalKnapsack(items, 10)
	if err != nil {
		t.Fatal(err)
	}
	if opt[0] || !opt[1] || !opt[2] {
		t.Fatalf("opt = %v, want {b, c}", opt)
	}
	greedy := LNCStar(items, 10)
	if ExpectedCostSavings(items, greedy) >= ExpectedCostSavings(items, opt) {
		t.Fatal("this instance is constructed to beat greedy; the exact solver must find it")
	}
}

func TestOptimalKnapsackLimit(t *testing.T) {
	items := make([]Item, 25)
	if _, err := OptimalKnapsack(items, 10); err == nil {
		t.Fatal("exhaustive solver must refuse more than 24 items")
	}
}

func TestExpectedCostMetrics(t *testing.T) {
	items := []Item{
		{ID: "a", Prob: 0.25, Cost: 100, Size: 1},
		{ID: "b", Prob: 0.75, Cost: 20, Size: 1},
	}
	cached := map[int]bool{0: true}
	// Miss cost: 0.75 × 20 = 15; savings: 25 / 40 = 0.625.
	if got := ExpectedMissCost(items, cached); got != 15 {
		t.Fatalf("miss cost = %g, want 15", got)
	}
	if got := ExpectedCostSavings(items, cached); got != 0.625 {
		t.Fatalf("savings = %g, want 0.625", got)
	}
	if got := ExpectedCostSavings(nil, nil); got != 0 {
		t.Fatalf("degenerate savings = %g, want 0", got)
	}
}

func TestMissCostPlusSavingsComplement(t *testing.T) {
	// For any selection: savings + missCost/totalValue = 1.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(15) + 1
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{
				Prob: rng.Float64() + 0.01,
				Cost: rng.Float64()*100 + 1,
				Size: rng.Int63n(20) + 1,
			}
		}
		cached := make(map[int]bool)
		for i := range items {
			if rng.Intn(2) == 0 {
				cached[i] = true
			}
		}
		var total float64
		for _, it := range items {
			total += it.Prob * it.Cost
		}
		return approxEq(ExpectedCostSavings(items, cached)+ExpectedMissCost(items, cached)/total, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLNCStarConvergenceOfOnlineLNCRA(t *testing.T) {
	// §2.3's asymptotic claim, miniaturized: under a stationary reference
	// distribution the online LNC-RA's steady-state cost savings should
	// approach the offline LNC* selection's expected savings.
	rng := rand.New(rand.NewSource(17))
	n := 30
	items := make([]Item, n)
	var probSum float64
	for i := range items {
		items[i] = Item{
			ID:   fmt.Sprintf("q%d", i),
			Prob: rng.Float64() + 0.02,
			Cost: float64(rng.Intn(900) + 100),
			Size: rng.Int63n(150) + 20,
		}
		probSum += items[i].Prob
	}
	capacity := int64(0)
	for _, it := range items {
		capacity += it.Size
	}
	capacity /= 3

	offline := ExpectedCostSavings(items, LNCStar(items, capacity))

	c, err := New(Config{Capacity: capacity, K: 4, Policy: LNCRA})
	if err != nil {
		t.Fatal(err)
	}
	now := 0.0
	var refs, hits, costAll, costHit float64
	warmup := 4000
	for i := 0; i < 20000; i++ {
		now += rng.ExpFloat64()
		x := rng.Float64() * probSum
		var pick int
		for j := range items {
			x -= items[j].Prob
			if x < 0 {
				pick = j
				break
			}
		}
		it := items[pick]
		hit, _ := c.Reference(Request{QueryID: it.ID, Time: now, Size: it.Size, Cost: it.Cost})
		if i >= warmup {
			refs++
			costAll += it.Cost
			if hit {
				hits++
				costHit += it.Cost
			}
		}
	}
	online := costHit / costAll
	// The online policy pays for misses that refresh statistics, so allow
	// a modest gap — but it must land in the offline optimum's ballpark.
	if online < offline-0.15 {
		t.Fatalf("online LNC-RA steady state %.3f far below offline LNC* %.3f", online, offline)
	}
}

// ExpectedMissCost returns Σ_{i∉I} pᵢcᵢ for the cached index set I, the
// objective (9) that the optimal replacement minimizes.
func ExpectedMissCost(items []Item, cached map[int]bool) float64 {
	var c float64
	for i, it := range items {
		if !cached[i] {
			c += it.Prob * it.Cost
		}
	}
	return c
}

// PackedExactly reports whether the selection fills the capacity exactly,
// the eq. (11) regime in which Theorem 1 proves LNC* optimal.
func PackedExactly(items []Item, selected map[int]bool, capacity int64) bool {
	var used int64
	for i := range selected {
		used += items[i].Size
	}
	return used == capacity
}
