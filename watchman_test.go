package watchman_test

import (
	"fmt"
	"testing"

	watchman "repro"
	"repro/internal/admission"
)

// These tests exercise the public facade end to end, the way a downstream
// user would.

func TestPublicCacheAPI(t *testing.T) {
	cache, err := watchman.New(watchman.Config{
		Capacity: 10 << 10,
		K:        4,
		Policy:   watchman.LNCRA,
	})
	if err != nil {
		t.Fatal(err)
	}
	hit, _ := cache.Reference(watchman.Request{
		QueryID: "select sum(x) from t",
		Time:    1, Size: 64, Cost: 1000,
		Relations: []string{"t"},
		Payload:   []int64{42},
	})
	if hit {
		t.Fatal("first reference hit")
	}
	hit, payload := cache.Reference(watchman.Request{
		QueryID: "select  sum(x)  from t", // same query, different spacing
		Time:    2, Size: 64, Cost: 1000,
	})
	if !hit {
		t.Fatal("normalized resubmission missed")
	}
	if rows, ok := payload.([]int64); !ok || rows[0] != 42 {
		t.Fatalf("payload = %v", payload)
	}
	if got := cache.Stats().CostSavingsRatio(); got != 0.5 {
		t.Fatalf("CSR = %g", got)
	}
	if n := cache.Invalidate("t"); n != 1 {
		t.Fatalf("invalidated %d", n)
	}
}

func TestPublicPolicies(t *testing.T) {
	for _, p := range []watchman.PolicyKind{
		watchman.LRU, watchman.LRUK, watchman.LNCR, watchman.LNCRA,
	} {
		c, err := watchman.New(watchman.Config{Capacity: 1024, Policy: p})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		c.Reference(watchman.Request{QueryID: "q", Time: 1, Size: 10, Cost: 5})
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
	}
}

func TestPublicIDHelpers(t *testing.T) {
	// The cache compresses query IDs itself: two spellings that differ
	// only in delimiter runs are one retrieved set.
	c, err := watchman.New(watchman.Config{Capacity: 1024, Policy: watchman.LRU})
	if err != nil {
		t.Fatal(err)
	}
	c.Reference(watchman.Request{QueryID: "select a,  b from t", Time: 1, Size: 10, Cost: 5})
	if hit, _ := c.Reference(watchman.Request{QueryID: "select a, b from t", Time: 2, Size: 10, Cost: 5}); !hit {
		t.Fatal("a respaced query ID missed its own set")
	}
}

func TestPublicTraceAndReplay(t *testing.T) {
	tr, err := watchman.TPCDTrace(0.005, watchman.WorkloadConfig{Queries: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	st := watchman.ComputeTraceStats(tr)
	if st.Queries != 1000 {
		t.Fatalf("stats queries = %d", st.Queries)
	}
	res, cache, err := watchman.Replay(tr, watchman.Config{
		Capacity: watchman.CacheBytesForFraction(tr, 1),
		K:        4,
		Policy:   watchman.LNCRA,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CSR() <= 0 || res.CSR() > st.MaxCostSavings+1e-9 {
		t.Fatalf("CSR = %g (bound %g)", res.CSR(), st.MaxCostSavings)
	}
	if err := cache.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicMulticlassTrace(t *testing.T) {
	mc, err := watchman.MulticlassTrace(0.005, watchman.WorkloadConfig{Queries: 600, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if mc.Len() != 600 {
		t.Fatal("multiclass trace length")
	}
}

func TestPublicBufferSim(t *testing.T) {
	res, err := watchman.RunWarehouseBufferSim(0.05, watchman.BufferSimConfig{
		Queries: 200, Seed: 6, PoolBytes: 1 << 20, CacheBytes: 1 << 20, P0: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PageReferences == 0 {
		t.Fatal("buffer sim did nothing")
	}
}

func TestPublicShardedAPI(t *testing.T) {
	var loads int
	cache, err := watchman.NewSharded(watchman.ShardedConfig{
		Shards: 4,
		Cache:  watchman.Config{Capacity: 1 << 20, K: 4, Policy: watchman.LNCRA},
		Loader: func(req watchman.Request) (any, int64, float64, error) {
			loads++
			return "rows", 128, 900, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cache.NumShards() != 4 {
		t.Fatalf("shards = %d", cache.NumShards())
	}
	payload, hit, err := cache.Load(watchman.Request{QueryID: "select sum(x) from t"})
	if err != nil || hit || payload != "rows" {
		t.Fatalf("first Load: payload=%v hit=%v err=%v", payload, hit, err)
	}
	payload, hit, err = cache.Load(watchman.Request{QueryID: "select  sum(x)  from t"})
	if err != nil || !hit || payload != "rows" {
		t.Fatalf("second Load: payload=%v hit=%v err=%v", payload, hit, err)
	}
	if loads != 1 {
		t.Fatalf("loader ran %d times, want 1", loads)
	}
	st := cache.Stats()
	if st.References != 2 || st.Hits != 1 || st.LoaderCalls != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if hit, _ := cache.Reference(watchman.Request{QueryID: "other", Size: 64, Cost: 10}); hit {
		t.Fatal("fresh Reference cannot hit")
	}
}

func TestPublicAdaptiveAdmissionAPI(t *testing.T) {
	tuner, err := admission.New(admission.Config{Capacity: 1 << 20, K: 2, Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := tuner.Threshold(); got != 1 {
		t.Fatalf("initial threshold = %g, want the static LNC-A setting 1", got)
	}
	cache, err := watchman.NewSharded(watchman.ShardedConfig{
		Shards: 2,
		Cache:  watchman.Config{Capacity: 1 << 20, K: 2, Policy: watchman.LNCRA},
		Tuner:  tuner,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cache.Tuner() != tuner {
		t.Fatal("Sharded.Tuner() must return the installed tuner")
	}
	for i := 0; i < 64; i++ {
		cache.Reference(watchman.Request{
			QueryID: fmt.Sprintf("select %d", i%8), Size: 256, Cost: 100,
		})
	}
	tuner.Drain()
	if rounds := tuner.Rounds(); len(rounds) != 1 || rounds[0].Samples != 64 {
		t.Fatalf("tuning rounds = %+v, want one round of 64 samples", rounds)
	}

	// A custom Admitter plugs into the single-threaded cache too: one that
	// rejects everything keeps the cache empty under pressure.
	never := watchman.AdmitterFunc(func(watchman.AdmissionDecision) bool { return false })
	c, err := watchman.New(watchman.Config{Capacity: 1024, K: 1, Policy: watchman.LRU, Admitter: never})
	if err != nil {
		t.Fatal(err)
	}
	c.Reference(watchman.Request{QueryID: "a", Time: 1, Size: 600, Cost: 1})
	c.Reference(watchman.Request{QueryID: "b", Time: 2, Size: 600, Cost: 1})
	if c.Resident() != 1 {
		t.Fatalf("resident = %d, want 1 (second set needs an eviction and the admitter refused)", c.Resident())
	}
}
