package core

import (
	"fmt"
	"strings"
)

// PolicyKind selects a cache replacement (and, for LNC-RA, admission)
// policy.
type PolicyKind int

const (
	// LRU is the vanilla least-recently-used baseline (K = 1) the paper
	// compares against.
	LRU PolicyKind = iota
	// LRUK is the LRU-K policy of O'Neil, O'Neil and Weikum, applied at
	// retrieved-set granularity: the victim is the set with the oldest
	// K-th most recent reference, with sets holding fewer than K reference
	// times evicted first (most recent reference breaking ties).
	LRUK
	// LFU evicts the least frequently used set (related-work baseline).
	LFU
	// LCS evicts the largest set first (the ADMS "Largest Cache Space"
	// baseline the paper cites as the best of the ADMS trio).
	LCS
	// LNCR is the paper's Least Normalized Cost replacement algorithm:
	// victims in ascending profit order, sets with fewer reference times
	// considered before sets with more (§2.1, Figure 1).
	LNCR
	// LNCRA is LNCR integrated with the LNC-A admission algorithm (§2.2):
	// a set is cached only if its (estimated) profit exceeds the aggregate
	// (estimated) profit of its replacement candidates.
	LNCRA
)

// String returns the conventional name of the policy.
func (p PolicyKind) String() string {
	switch p {
	case LRU:
		return "LRU"
	case LRUK:
		return "LRU-K"
	case LFU:
		return "LFU"
	case LCS:
		return "LCS"
	case LNCR:
		return "LNC-R"
	case LNCRA:
		return "LNC-RA"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(p))
	}
}

// ParsePolicy maps a policy name to its kind, case-insensitively. It
// accepts the lowercase String forms and their hyphenless aliases
// ("lruk", "lncr", "lncra").
func ParsePolicy(name string) (PolicyKind, error) {
	switch strings.ToLower(name) {
	case "lru":
		return LRU, nil
	case "lru-k", "lruk":
		return LRUK, nil
	case "lfu":
		return LFU, nil
	case "lcs":
		return LCS, nil
	case "lnc-r", "lncr":
		return LNCR, nil
	case "lnc-ra", "lncra":
		return LNCRA, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (want lru, lru-k, lfu, lcs, lnc-r or lnc-ra)", name)
	}
}

// HasAdmission reports whether the policy runs the LNC-A admission test.
func (p PolicyKind) HasAdmission() bool { return p == LNCRA }

// RetainsRefInfo reports whether the policy keeps reference information
// after eviction. The paper's LNC-R/LNC-RA retain it under the §2.4 policy;
// LRU-K retains it per the original LRU-K design. LRU, LFU and LCS do not
// use reference history beyond what they cache.
func (p PolicyKind) RetainsRefInfo() bool {
	switch p {
	case LRUK, LNCR, LNCRA:
		return true
	default:
		return false
	}
}

// ranker orders entries for eviction.
type ranker struct {
	policy PolicyKind
	// strictTiers enables the literal Figure-1 reference-count tiers for
	// the LNC policies (ablation A6).
	strictTiers bool
	// rc is the owning cache's λ context, read by the evictor's column
	// pass; nil outside a cache, like an Entry's.
	rc *rateContext
}

// byProfit reports whether the rank depends on the current time: the LNC
// policies rank by profit, every other policy by a key that changes only
// when the entry is referenced.
func (r ranker) byProfit() bool {
	switch r.policy {
	case LRU, LRUK, LFU, LCS:
		return false
	default:
		return true
	}
}

// profitTier is the LNC tier of an entry holding n reference times.
func (r ranker) profitTier(n int) int {
	if !r.strictTiers || n < 1 {
		return 1
	}
	return n
}

// rank returns the eviction priority: victims are selected in ascending
// (tier, key) order. Lower tiers are evicted before higher tiers regardless
// of key; within a tier, lower keys go first.
func (r ranker) rank(e *Entry, now float64) (tier int, key float64) {
	switch r.policy {
	case LRU:
		return 0, e.LastRef()
	case LRUK:
		// Sets with incomplete windows have infinite backward K-distance:
		// evict them first, least recently used first. Full windows are
		// ordered by the K-th most recent reference time.
		if e.window.count() < len(e.window.times) {
			return 0, e.LastRef()
		}
		return 1, e.window.kth()
	case LFU:
		return 0, float64(e.TotalRefs())
	case LCS:
		return 0, -float64(e.Size)
	default: // LNCR, LNCRA
		// Strict Figure-1 ordering: all sets with exactly one reference in
		// profit order, then all with two references, etc. The default
		// collapses the tiers and competes on profit alone.
		return r.profitTier(e.window.count()), e.Profit(now)
	}
}
