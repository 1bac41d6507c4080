package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// replayRandom drives a cache with a pseudo-random request stream derived
// from seed and returns it.
func replayRandom(cfg Config, seed int64, n int) (*Cache, error) {
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	now := 0.0
	for i := 0; i < n; i++ {
		now += rng.ExpFloat64()
		id := fmt.Sprintf("q%d", rng.Intn(60))
		size := rng.Int63n(300) + 1
		cost := float64(rng.Intn(5000) + 1)
		// Sizes and costs must be stable per query ID, as they are for
		// deterministic engines; derive them from the ID instead.
		h := Signature(id)
		size = int64(h%300) + 1
		cost = float64(h%5000) + 1
		rels := []string{fmt.Sprintf("r%d", h%5)}
		c.Reference(Request{QueryID: id, Time: now, Size: size, Cost: cost, Relations: rels})
		if rng.Intn(97) == 0 {
			c.Invalidate(fmt.Sprintf("r%d", rng.Intn(5)))
		}
	}
	return c, nil
}

// allSetups enumerates the policy grid the property tests cover.
func allSetups() []Config {
	var out []Config
	for _, p := range []PolicyKind{LRU, LRUK, LFU, LCS, LNCR, LNCRA} {
		out = append(out, Config{Capacity: 2000, K: 3, Policy: p})
	}
	// Variants: strict tiers, disabled retention, metadata overhead.
	out = append(out,
		Config{Capacity: 2000, K: 4, Policy: LNCRA, StrictTiers: true},
		Config{Capacity: 2000, K: 4, Policy: LNCRA, DisableRetainedInfo: true},
		Config{Capacity: 2000, K: 4, Policy: LNCRA, MetadataOverhead: 64},
		Config{Capacity: 50, K: 2, Policy: LNCRA},
	)
	return out
}

func TestPropertyInvariantsAcrossPolicies(t *testing.T) {
	for _, cfg := range allSetups() {
		cfg := cfg
		name := fmt.Sprintf("%s-scan-strict%v-ret%v-meta%d-cap%d",
			cfg.Policy, cfg.StrictTiers, !cfg.DisableRetainedInfo, cfg.MetadataOverhead, cfg.Capacity)
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				c, err := replayRandom(cfg, seed, 800)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.CheckInvariants(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				s := c.Stats()
				if hr := s.HitRatio(); hr < 0 || hr > 1 {
					t.Fatalf("seed %d: HR out of range: %g", seed, hr)
				}
				if csr := s.CostSavingsRatio(); csr < 0 || csr > 1 {
					t.Fatalf("seed %d: CSR out of range: %g", seed, csr)
				}
				if frag := s.AvgFragmentation(); frag < 0 || frag > 1 {
					t.Fatalf("seed %d: fragmentation out of range: %g", seed, frag)
				}
				if c.UsedBytes() > cfg.Capacity {
					t.Fatalf("seed %d: capacity exceeded", seed)
				}
				if s.Hits+s.Admissions+s.Rejections < s.References {
					t.Fatalf("seed %d: every reference must hit, admit or reject", seed)
				}
			}
		})
	}
}

func TestPropertyDeterminism(t *testing.T) {
	for _, p := range []PolicyKind{LRU, LNCR, LNCRA} {
		cfg := Config{Capacity: 3000, K: 3, Policy: p}
		a, err := replayRandom(cfg, 99, 1000)
		if err != nil {
			t.Fatal(err)
		}
		b, err := replayRandom(cfg, 99, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if a.Stats() != b.Stats() {
			t.Fatalf("%s: identical streams produced different stats:\n%+v\n%+v", p, a.Stats(), b.Stats())
		}
	}
}

func TestPropertyHitImpliesResidentQuick(t *testing.T) {
	// A hit must be preceded by an admission of the same ID without an
	// intervening eviction — checked indirectly: after any stream, Peek
	// agreement with a fresh Reference.
	f := func(seed int64) bool {
		c, err := New(Config{Capacity: 1500, K: 2, Policy: LNCRA})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		now := 0.0
		for i := 0; i < 300; i++ {
			now += rng.Float64() + 0.001
			id := fmt.Sprintf("q%d", rng.Intn(30))
			h := Signature(id)
			size := int64(h%400) + 1
			cost := float64(h%900) + 1
			_, present := c.Peek(id)
			hit, _ := c.Reference(Request{QueryID: id, Time: now, Size: size, Cost: cost})
			if hit != present {
				return false
			}
		}
		return c.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyInfiniteCacheMatchesBound(t *testing.T) {
	// With an unlimited cache, every repeat reference hits: HR and CSR
	// must exactly equal the trace's analytic bounds.
	f := func(seed int64) bool {
		c, err := New(Config{Capacity: Unlimited, K: 4, Policy: LNCRA})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		refs := make(map[string]int)
		costs := make(map[string]float64)
		now := 0.0
		for i := 0; i < 400; i++ {
			now += rng.Float64() + 0.001
			id := fmt.Sprintf("q%d", rng.Intn(50))
			h := Signature(id)
			cost := float64(h%1000) + 1
			c.Reference(Request{QueryID: id, Time: now, Size: int64(h%100) + 1, Cost: cost})
			refs[id]++
			costs[id] = cost
		}
		var hitNum, hitDen, csrNum, csrDen float64
		for id, r := range refs {
			hitNum += float64(r - 1)
			hitDen += float64(r)
			csrNum += costs[id] * float64(r-1)
			csrDen += costs[id] * float64(r)
		}
		s := c.Stats()
		return approxEq(s.HitRatio(), hitNum/hitDen) && approxEq(s.CostSavingsRatio(), csrNum/csrDen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func approxEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}
