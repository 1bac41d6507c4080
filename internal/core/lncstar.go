package core

import (
	"fmt"
	"math"
	"sort"
)

// This file implements the offline machinery of §2.3: the LNC* greedy
// algorithm, the exact (exponential) knapsack solver used to verify its
// optimality claim in tests, and the expected-cost objective both optimize.
//
// The constrained model: retrieved sets RS₁..RSₙ with sizes sᵢ, costs cᵢ and
// stationary reference probabilities pᵢ. The optimal static cache content
// I* ⊆ N minimizes Σ_{i∉I*} pᵢcᵢ subject to Σ_{i∈I*} sᵢ ≤ S, which under
// the "sets fill the cache exactly" assumption (eq. 11) is solved by the
// greedy LNC*: sort by pᵢcᵢ/sᵢ descending, take items until the budget is
// violated.

// Item is one retrieved set in the offline model.
type Item struct {
	// ID labels the item (diagnostics only).
	ID string
	// Prob is the stationary reference probability pᵢ.
	Prob float64
	// Cost is the execution cost cᵢ.
	Cost float64
	// Size is the retrieved set size sᵢ.
	Size int64
}

// ExpectedCostSavings returns Σ_{i∈I} pᵢcᵢ / Σᵢ pᵢcᵢ, the steady-state cost
// savings ratio of the static cache content I.
func ExpectedCostSavings(items []Item, cached map[int]bool) float64 {
	var num, den float64
	for i, it := range items {
		den += it.Prob * it.Cost
		if cached[i] {
			num += it.Prob * it.Cost
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// LNCStar runs the greedy LNC* algorithm: items sorted by pᵢcᵢ/sᵢ in
// descending order are admitted until one no longer fits. Following the
// paper's construction ("assigns items from the start of the list until the
// space requirement is violated"), the scan stops at the first item that
// violates the budget. It returns the selected index set.
func LNCStar(items []Item, capacity int64) map[int]bool {
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	density := func(i int) float64 {
		if items[i].Size <= 0 {
			return math.Inf(1)
		}
		return items[i].Prob * items[i].Cost / float64(items[i].Size)
	}
	sort.SliceStable(order, func(a, b int) bool {
		da, db := density(order[a]), density(order[b])
		if da != db {
			return da > db
		}
		return items[order[a]].ID < items[order[b]].ID
	})
	selected := make(map[int]bool)
	var used int64
	for _, i := range order {
		if used+items[i].Size > capacity {
			break
		}
		selected[i] = true
		used += items[i].Size
	}
	return selected
}

// OptimalKnapsack solves objective (9)/(10) exactly by exhaustive search.
// It is exponential in len(items) and exists to verify LNC* in tests; it
// returns an error beyond 24 items.
func OptimalKnapsack(items []Item, capacity int64) (map[int]bool, error) {
	n := len(items)
	if n > 24 {
		return nil, fmt.Errorf("core: exhaustive knapsack limited to 24 items, got %d", n)
	}
	bestMask := uint32(0)
	bestValue := math.Inf(-1)
	for mask := uint32(0); mask < 1<<n; mask++ {
		var size int64
		var value float64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				size += items[i].Size
				value += items[i].Prob * items[i].Cost
			}
		}
		if size <= capacity && value > bestValue {
			bestValue = value
			bestMask = mask
		}
	}
	out := make(map[int]bool)
	for i := 0; i < n; i++ {
		if bestMask&(1<<i) != 0 {
			out[i] = true
		}
	}
	return out, nil
}
