package shard

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/whatif"
)

// newAdaptiveSharded builds a small sharded cache with adaptive admission
// enabled and a window small enough that tuning rounds actually fire under
// test-sized traffic.
func newAdaptiveSharded(t *testing.T, window int) *Sharded {
	t.Helper()
	tuner, err := admission.New(admission.Config{Capacity: 1 << 18, K: 2, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Shards: 4,
		Cache:  core.Config{Capacity: 1 << 18, K: 2, Policy: core.LNCRA},
		Tuner:  tuner,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestAdaptiveConcurrentPublishRead hammers the sharded cache from many
// goroutines while tuning rounds concurrently publish the admission
// parameter and other readers poll it — the -race run of this package is
// the lock-freedom check for the hot-path parameter read.
func TestAdaptiveConcurrentPublishRead(t *testing.T) {
	s := newAdaptiveSharded(t, 128)
	tuner := s.Tuner()
	if tuner == nil {
		t.Fatal("Tuner() returned nil for an adaptive cache")
	}

	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// A mix of per-worker hot queries and shared cold ones, so
				// shards see hits, misses, admissions and rejections.
				q := fmt.Sprintf("worker %d query %d", w, i%50)
				if i%7 == 0 {
					q = fmt.Sprintf("shared scan %d", i)
				}
				rels := []string{fmt.Sprintf("rel%d", i%5)}
				s.Reference(Request{QueryID: q, Size: int64(512 + i%4096), Cost: float64(100 + i%900), Relations: rels})
				if i%500 == 250 {
					// Coherence events race the tuning rounds on the
					// tuner's feed.
					s.Invalidate(rels...)
				}
			}
		}(w)
	}
	// Concurrent parameter readers and an extra synchronous tuning driver,
	// racing against the rounds the traffic closes on the feed's worker.
	var rg sync.WaitGroup
	stop := make(chan struct{})
	rg.Add(2)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = tuner.Threshold()
				_ = tuner.Rounds()
			}
		}
	}()
	go func() {
		defer rg.Done()
		for i := 0; i < 50; i++ {
			tuner.TuneOnce()
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()

	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	th := tuner.Threshold()
	if th <= 0 {
		t.Fatalf("published threshold %g must stay positive", th)
	}
	st := s.Stats()
	if st.References != workers*perWorker {
		t.Fatalf("references = %d, want %d", st.References, workers*perWorker)
	}
}

// TestShardedTunerNilByDefault pins that a cache without a tuner reports
// none and takes the static admission path.
func TestShardedTunerNilByDefault(t *testing.T) {
	s, err := New(Config{Shards: 2, Cache: core.Config{Capacity: 1 << 16, K: 2, Policy: core.LNCRA}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Tuner() != nil {
		t.Error("Tuner() must be nil without adaptive admission")
	}
}

// TestAdaptiveLoadPathRecords drives the Load path (hits, coalesced
// followers and leader misses) and checks references reach the tuner's
// feed so serving traffic can tune at all.
func TestAdaptiveLoadPathRecords(t *testing.T) {
	// Window larger than the traffic: no round closes on its own, so the
	// TuneOnce below drains the feed and scores every reference, and the
	// assertion is deterministic.
	tuner, err := admission.New(admission.Config{Capacity: 1 << 18, K: 2, Window: 1024})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Shards: 2,
		Cache:  core.Config{Capacity: 1 << 18, K: 2, Policy: core.LNCRA},
		Loader: func(req Request) (any, int64, float64, error) {
			return "payload", 1024, 500, nil
		},
		Tuner: tuner,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	for i := 0; i < 40; i++ {
		if _, _, err := s.Load(Request{QueryID: fmt.Sprintf("q%d", i%10)}); err != nil {
			t.Fatal(err)
		}
	}
	round, ok := tuner.TuneOnce()
	if !ok {
		t.Fatal("TuneOnce found no samples after 40 Load references")
	}
	if round.Samples != 40 {
		t.Errorf("tuning round drained %d samples, want all 40 Load references", round.Samples)
	}
}

// TestInvalEpochPruned pins the invalidation-epoch bookkeeping: the
// per-relation epoch map must be pruned once no load is in flight, so a
// long-lived daemon cannot accumulate one entry per relation name ever
// invalidated.
func TestInvalEpochPruned(t *testing.T) {
	s, err := New(Config{
		Shards: 1,
		Cache:  core.Config{Capacity: 1 << 16, K: 1, Policy: core.LRU},
		Loader: func(req Request) (any, int64, float64, error) { return "v", 128, 10, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Invalidate("r1", "r2")
	if got := len(s.shards[0].invalEpoch); got != 2 {
		t.Fatalf("invalEpoch holds %d entries after invalidation, want 2", got)
	}
	if _, _, err := s.Load(Request{QueryID: "q", Relations: []string{"other"}}); err != nil {
		t.Fatal(err)
	}
	if got := len(s.shards[0].invalEpoch); got != 0 {
		t.Errorf("invalEpoch holds %d entries after the last flight completed, want 0 (pruned)", got)
	}
	if s.shards[0].clearedAt != s.shards[0].epoch {
		t.Errorf("clearedAt = %d, want the prune-time epoch %d", s.shards[0].clearedAt, s.shards[0].epoch)
	}
}

// TestInvalidationReachesShadowsInStreamOrder pins that a coherence event
// reaches the θ shadows where it sits in the reference stream. With one
// shard and the tuner sized like the cache, the θ = 1 shadow is the live
// cache's twin: X, Invalidate(r), then 19 more X is one miss, one miss
// after the drop and 18 hits in both, CSR 0.9. An invalidation applied
// after the references around it would let the shadow keep X and credit
// a hit the live cache never had (0.95).
func TestInvalidationReachesShadowsInStreamOrder(t *testing.T) {
	const capacity = 1 << 16
	tuner, err := admission.New(admission.Config{Capacity: capacity, K: 2, Window: 1024})
	if err != nil {
		t.Fatal(err)
	}
	s := newSharded(t, Config{
		Shards: 1,
		Cache:  core.Config{Capacity: capacity, K: 2, Policy: core.LNCRA},
		Tuner:  tuner,
	})
	x := Request{QueryID: "select x from r", Size: 100, Cost: 50, Relations: []string{"r"}}
	s.Reference(x)
	s.Invalidate("r")
	for i := 0; i < 19; i++ {
		s.Reference(x)
	}
	if _, ok := tuner.TuneOnce(); !ok {
		t.Fatal("TuneOnce declined the 20-reference window")
	}
	live := s.Stats().CostSavingsRatio()
	if live != 0.9 {
		t.Fatalf("live CSR %v, want 0.9", live)
	}
	for _, arm := range tuner.ArmScores() {
		if arm.Theta == 1 && arm.TotalCSR != live {
			t.Errorf("θ=1 shadow CSR %v, live cache %v: the invalidation reached the shadow out of order",
				arm.TotalCSR, live)
		}
	}
}

// TestCloseStopsFeeds pins that Close stops what New started: the tuner's
// and the what-if matrix's feed workers exit, a second Close is harmless,
// and the tuner still answers afterwards.
func TestCloseStopsFeeds(t *testing.T) {
	// goroutines waits, up to a second, for the count to reach want (or,
	// with want < 0, to hold still for 10 ms: workers a previous test
	// closed may still be on their way out) and returns it.
	goroutines := func(want int) int {
		n, still := runtime.NumGoroutine(), 0
		for deadline := time.Now().Add(time.Second); n != want && still < 10 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
			if m := runtime.NumGoroutine(); m == n {
				still++
			} else {
				n, still = m, 0
			}
		}
		return n
	}
	cfg := core.Config{Capacity: 1 << 18, K: 2, Policy: core.LNCRA}
	tuner, err := admission.New(admission.Config{Capacity: cfg.Capacity, K: 2, Window: 1024})
	if err != nil {
		t.Fatal(err)
	}
	ghosts, err := whatif.New(whatif.Config{Base: cfg, SampleRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	base := goroutines(-1)
	s, err := New(Config{Shards: 2, Cache: cfg, Tuner: tuner, WhatIf: ghosts})
	if err != nil {
		t.Fatal(err)
	}
	if got := goroutines(base + 2); got != base+2 {
		t.Errorf("%d goroutines with both observers attached, want %d (one feed worker each)", got, base+2)
	}
	for i := 0; i < 100; i++ {
		s.Reference(Request{QueryID: fmt.Sprintf("q%d", i%10), Size: 256, Cost: 100})
	}
	s.Close()
	if got := goroutines(base); got != base {
		t.Errorf("%d goroutines after Close, want the baseline %d", got, base)
	}
	s.Close()

	round, ok := tuner.TuneOnce()
	if !ok || round.Samples != 100 {
		t.Errorf("TuneOnce after Close = %+v, %v; want the 100 references queued before it", round, ok)
	}
	if th := tuner.Threshold(); th <= 0 {
		t.Errorf("threshold %g after Close", th)
	}
	if arms := tuner.ArmScores(); len(arms) != len(admission.DefaultGrid()) || arms[0].References != 100 {
		t.Errorf("arms after Close = %+v", arms)
	}
}
