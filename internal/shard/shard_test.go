package shard

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/raceflag"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// logical returns a deterministic, strictly increasing time source so the
// tests never touch the wall clock.
func logical() func() float64 {
	var ticks atomic.Int64
	return func() float64 { return float64(ticks.Add(1)) / 1000 }
}

func newSharded(t *testing.T, cfg Config) *Sharded {
	t.Helper()
	if cfg.Now == nil {
		cfg.Now = logical()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Shards: 3, Cache: core.Config{Capacity: 1 << 20}}); err == nil {
		t.Error("non-power-of-two shard count must error")
	}
	if _, err := New(Config{Shards: -4, Cache: core.Config{Capacity: 1 << 20}}); err == nil {
		t.Error("negative shard count must error")
	}
	if _, err := New(Config{Shards: 16, Cache: core.Config{Capacity: 8}}); err == nil {
		t.Error("capacity smaller than shard count must error")
	}
	s, err := New(Config{Cache: core.Config{Capacity: 1 << 20, Policy: core.LNCRA, K: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumShards() != DefaultShards {
		t.Errorf("default shards = %d, want %d", s.NumShards(), DefaultShards)
	}
}

func TestCapacitySplit(t *testing.T) {
	s := newSharded(t, Config{Shards: 8, Cache: core.Config{Capacity: 1005, Policy: core.LRU}})
	if got := s.Capacity(); got != 1005 {
		t.Errorf("total capacity = %d, want 1005 (remainder bytes must not be lost)", got)
	}
	u := newSharded(t, Config{Shards: 4, Cache: core.Config{Capacity: core.Unlimited, Policy: core.LNCRA}})
	if u.Capacity() != core.Unlimited {
		t.Error("unlimited capacity must stay unlimited per shard")
	}
}

func TestReferenceHitMissAndStats(t *testing.T) {
	s := newSharded(t, Config{Shards: 4, Cache: core.Config{Capacity: 1 << 20, K: 2, Policy: core.LNCRA}})
	hit, _ := s.Reference(core.Request{QueryID: "q one", Size: 100, Cost: 50, Payload: "rows"})
	if hit {
		t.Fatal("first reference cannot hit")
	}
	hit, payload := s.Reference(core.Request{QueryID: "q  one", Size: 100, Cost: 50})
	if !hit || payload != "rows" {
		t.Fatalf("second reference: hit=%v payload=%v (IDs must be compressed before routing)", hit, payload)
	}
	st := s.Stats()
	if st.References != 2 || st.Hits != 1 || st.Admissions != 1 {
		t.Errorf("stats = %+v", st.Stats)
	}
	if st.CostSaved != 50 || st.CostTotal != 100 {
		t.Errorf("cost accounting: saved=%g total=%g", st.CostSaved, st.CostTotal)
	}
	if s.Resident() != 1 {
		t.Errorf("resident = %d", s.Resident())
	}
	if _, ok := s.Peek("q one"); !ok {
		t.Error("Peek must find the resident set")
	}
	if _, ok := s.Peek("never seen"); ok {
		t.Error("Peek must miss an unknown query")
	}
}

func TestInvalidateAcrossShards(t *testing.T) {
	s := newSharded(t, Config{Shards: 4, Cache: core.Config{Capacity: 1 << 20, Policy: core.LNCRA, K: 2}})
	for i := 0; i < 64; i++ {
		s.Reference(core.Request{
			QueryID:   fmt.Sprintf("query %d", i),
			Size:      64,
			Cost:      10,
			Relations: []string{"lineitem"},
		})
	}
	if _, ok := s.Peek("query 7"); !ok {
		t.Fatal("setup: query 7 not resident")
	}
	s.Reference(core.Request{QueryID: "orders scan", Size: 64, Cost: 10, Relations: []string{"orders"}})
	dropped := s.Invalidate("lineitem")
	if dropped != 64 {
		t.Errorf("dropped %d, want 64", dropped)
	}
	if _, ok := s.Peek("orders scan"); !ok {
		t.Error("invalidation must not touch other relations")
	}
	if s.Resident() != 1 {
		t.Errorf("resident after invalidate = %d, want 1", s.Resident())
	}
}

// TestConcurrentHammer drives hit/miss/eviction interleavings from many
// goroutines; run with -race. The invariant check afterwards proves the
// per-shard caches stayed internally consistent.
func TestConcurrentHammer(t *testing.T) {
	s := newSharded(t, Config{
		Shards: 8,
		Cache:  core.Config{Capacity: 64 << 10, K: 3, Policy: core.LNCRA, MetadataOverhead: 16},
	})
	const workers = 16
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Overlapping ID space: plenty of same-key contention. A
				// set's size follows its ID, not the iteration, so the
				// 512 sets (~160 KiB) overflow the 64 KiB cache however
				// the workers interleave.
				k := (w*perWorker + i*7) % 512
				id := fmt.Sprintf("query %d", k)
				s.Reference(core.Request{QueryID: id, Size: int64(64 + k), Cost: float64(10 + i%90)})
				if i%97 == 0 {
					s.Peek(id)
				}
				if i%503 == 0 {
					s.Invalidate("nonexistent")
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if want := int64(workers * perWorker); st.References != want {
		t.Errorf("references = %d, want %d", st.References, want)
	}
	if st.Hits == 0 || st.Evictions == 0 {
		t.Errorf("hammer should produce hits and evictions: %+v", st.Stats)
	}
}

// TestSingleflight parks N concurrent Load calls on one query ID behind a
// blocking loader and proves the loader ran exactly once.
func TestSingleflight(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	arrived := make(chan struct{}, 64)
	loader := func(req core.Request) (any, int64, float64, error) {
		calls.Add(1)
		arrived <- struct{}{}
		<-release
		// Note: req.QueryID arrives compressed (delimiters collapsed).
		return "hot result", 128, 42, nil
	}
	s := newSharded(t, Config{
		Shards: 4,
		Cache:  core.Config{Capacity: 1 << 20, K: 2, Policy: core.LNCRA},
		Loader: loader,
	})

	const waiters = 24
	var wg sync.WaitGroup
	results := make([]any, waiters)
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = s.Load(core.Request{QueryID: "hot query"})
		}(i)
	}
	<-arrived // leader is inside the loader
	// Wait until every follower has found the flight and parked behind it
	// (Coalesced is counted at park time), then let the loader finish.
	for s.Stats().Coalesced < waiters-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("loader ran %d times for one in-flight query ID, want 1", got)
	}
	for i := range results {
		if errs[i] != nil || results[i] != "hot result" {
			t.Fatalf("waiter %d: payload=%v err=%v", i, results[i], errs[i])
		}
	}
	st := s.Stats()
	if st.LoaderCalls != 1 {
		t.Errorf("LoaderCalls = %d, want 1", st.LoaderCalls)
	}
	if st.Coalesced != waiters-1 {
		t.Errorf("Coalesced = %d, want %d", st.Coalesced, waiters-1)
	}
	// A subsequent Load is a plain hit: no loader call.
	if _, hit, err := s.Load(core.Request{QueryID: "hot query"}); err != nil || !hit {
		t.Errorf("post-flight Load: hit=%v err=%v", hit, err)
	}
	if calls.Load() != 1 {
		t.Errorf("hit path must not run the loader")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSingleflightDistinctIDs verifies coalescing is per query ID: distinct
// in-flight IDs each execute once.
func TestSingleflightDistinctIDs(t *testing.T) {
	var calls atomic.Int64
	loader := func(req core.Request) (any, int64, float64, error) {
		calls.Add(1)
		return req.QueryID, 64, 10, nil
	}
	s := newSharded(t, Config{
		Shards: 4,
		Cache:  core.Config{Capacity: 1 << 20, K: 2, Policy: core.LNCRA},
		Loader: loader,
	})
	const ids = 32
	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		for i := 0; i < ids; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, _, err := s.Load(core.Request{QueryID: fmt.Sprintf("query %d", i)}); err != nil {
					t.Error(err)
				}
			}(i)
		}
	}
	wg.Wait()
	if got := calls.Load(); got != ids {
		// Each unique ID misses once (round 1) and hits (or coalesces)
		// afterwards, so exactly `ids` loader executions.
		t.Errorf("loader ran %d times, want %d", got, ids)
	}
}

// TestInvalidateFencesInflightLoad checks the coherence epoch: a load
// whose query executes while an invalidation lands must not admit its
// (possibly stale) result, though callers still receive the payload.
func TestInvalidateFencesInflightLoad(t *testing.T) {
	inLoader := make(chan struct{})
	release := make(chan struct{})
	var first atomic.Bool
	first.Store(true)
	s := newSharded(t, Config{
		Shards: 2,
		Cache:  core.Config{Capacity: 1 << 20, K: 2, Policy: core.LNCRA},
		Loader: func(req core.Request) (any, int64, float64, error) {
			if first.CompareAndSwap(true, false) {
				close(inLoader)
				<-release
			}
			return "pre-update rows", 64, 10, nil
		},
	})
	done := make(chan struct{})
	var payload any
	go func() {
		defer close(done)
		payload, _, _ = s.Load(core.Request{QueryID: "q over lineitem", Relations: []string{"lineitem"}})
	}()
	<-inLoader
	s.Invalidate("orders")   // unrelated relation: must NOT fence the flight
	s.Invalidate("lineitem") // coherence event on the flight's relation
	close(release)
	<-done
	if payload != "pre-update rows" {
		t.Fatalf("caller payload = %v", payload)
	}
	if _, ok := s.Peek("q over lineitem"); ok {
		t.Fatal("stale flight result must not be admitted after an invalidation")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The next Load re-executes and caches normally.
	if _, hit, err := s.Load(core.Request{QueryID: "other query"}); err != nil || hit {
		t.Fatalf("post-fence Load: hit=%v err=%v", hit, err)
	}
}

// TestUnrelatedInvalidateDoesNotFenceLoad is the scoping counterpart: an
// invalidation of relations the in-flight query does not read must not
// block its admission, or coherence chatter would collapse the hit ratio.
func TestUnrelatedInvalidateDoesNotFenceLoad(t *testing.T) {
	inLoader := make(chan struct{})
	release := make(chan struct{})
	var first atomic.Bool
	first.Store(true)
	s := newSharded(t, Config{
		Shards: 2,
		Cache:  core.Config{Capacity: 1 << 20, K: 2, Policy: core.LNCRA},
		Loader: func(req core.Request) (any, int64, float64, error) {
			if first.CompareAndSwap(true, false) {
				close(inLoader)
				<-release
			}
			return "rows", 64, 10, nil
		},
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Load(core.Request{QueryID: "q over lineitem", Relations: []string{"lineitem"}})
	}()
	<-inLoader
	s.Invalidate("orders") // different relation: no fence
	close(release)
	<-done
	if _, ok := s.Peek("q over lineitem"); !ok {
		t.Fatal("invalidation of an unrelated relation must not block admission")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadErrorPropagates(t *testing.T) {
	boom := errors.New("backend down")
	s := newSharded(t, Config{
		Shards: 2,
		Cache:  core.Config{Capacity: 1 << 20, Policy: core.LNCRA, K: 2},
		Loader: func(core.Request) (any, int64, float64, error) { return nil, 0, 0, boom },
	})
	if _, _, err := s.Load(core.Request{QueryID: "q"}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if s.Resident() != 0 {
		t.Error("failed load must not admit anything")
	}
}

// TestLoaderPanicDoesNotStrandFlight turns a loader panic into an error
// for all callers and leaves the shard usable: a stranded flight would
// deadlock every future Load of that query ID.
func TestLoaderPanicDoesNotStrandFlight(t *testing.T) {
	var calls atomic.Int64
	s := newSharded(t, Config{
		Shards: 2,
		Cache:  core.Config{Capacity: 1 << 20, K: 2, Policy: core.LNCRA},
		Loader: func(req core.Request) (any, int64, float64, error) {
			if calls.Add(1) == 1 {
				panic("malformed query")
			}
			return "recovered", 64, 10, nil
		},
	})
	if _, _, err := s.Load(core.Request{QueryID: "q"}); err == nil {
		t.Fatal("panicking loader must surface an error")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err) // in particular: no leaked flight
	}
	payload, hit, err := s.Load(core.Request{QueryID: "q"})
	if err != nil || hit || payload != "recovered" {
		t.Fatalf("retry after panic: payload=%v hit=%v err=%v", payload, hit, err)
	}
}

func TestLoadWithoutLoader(t *testing.T) {
	s := newSharded(t, Config{Shards: 2, Cache: core.Config{Capacity: 1 << 20, Policy: core.LRU}})
	if _, _, err := s.Load(core.Request{QueryID: "q"}); err == nil {
		t.Fatal("Load without a Loader must error")
	}
}

// TestConcurrentParityWithCore replays a TPC-D trace concurrently through
// the sharded LNC-RA cache and serially through one core.Cache of the same
// total capacity, and requires the cost-savings ratios to agree within two
// percentage points — partitioning and interleaving must not change the
// policy's character.
func TestConcurrentParityWithCore(t *testing.T) {
	_, tr, err := workload.StandardTPCD(0, workload.Config{Queries: 6000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	capacity := onePercent(tr)

	serial, err := core.New(core.Config{Capacity: capacity, K: 4, Policy: core.LNCRA})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Records {
		serial.Reference(traceReq(&tr.Records[i]))
	}

	s := newSharded(t, Config{Shards: 8, Cache: core.Config{Capacity: capacity, K: 4, Policy: core.LNCRA}})
	const workers = 16
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(tr.Len()) {
					return
				}
				rec := &tr.Records[i]
				s.Reference(core.Request{
					QueryID: rec.QueryID,
					Time:    rec.Time,
					Size:    rec.Size,
					Cost:    rec.Cost,
				})
			}
		}()
	}
	wg.Wait()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.References != int64(tr.Len()) {
		t.Fatalf("replayed %d of %d records", st.References, tr.Len())
	}
	got, want := st.CostSavingsRatio(), serial.Stats().CostSavingsRatio()
	if math.Abs(got-want) > 0.02 {
		t.Errorf("sharded CSR %.4f vs serial %.4f: diverged by more than 2 points", got, want)
	}
	t.Logf("CSR: sharded %.4f, serial %.4f (Δ %.4f); HR: sharded %.4f, serial %.4f",
		got, want, got-want, st.HitRatio(), serial.Stats().HitRatio())
}

// zeroClock keeps zero-valued request times at zero, so a sharded replay
// sees exactly the timestamps a serial core.Cache replay sees.
func zeroClock() float64 { return 0 }

// goldenTraces builds the three equivalence workloads: TPC-D, multiclass
// and drilldown.
func goldenTraces(t *testing.T) map[string]*trace.Trace {
	t.Helper()
	out := make(map[string]*trace.Trace)
	_, tr, err := workload.StandardTPCD(0, workload.Config{Queries: 4000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	out["tpcd"] = tr
	_, tr, err = workload.GenerateMulticlass(0, workload.MulticlassConfig{Config: workload.Config{Queries: 4000, Seed: 42}})
	if err != nil {
		t.Fatal(err)
	}
	out["multiclass"] = tr
	_, tr, err = workload.StandardDrilldown(0, workload.Config{Queries: 4000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	out["drilldown"] = tr
	return out
}

// onePercent sizes a cache at 1% of the trace's database, at least one
// page: the capacity the golden replays use.
func onePercent(tr *trace.Trace) int64 {
	return max(int64(float64(tr.DatabaseBytes)/100), 4096)
}

// traceReq builds the identical request both the serial and the sharded
// replays submit for one trace record.
func traceReq(rec *trace.Record) core.Request {
	return core.Request{
		QueryID:   rec.QueryID,
		Time:      rec.Time,
		Class:     rec.Class,
		Size:      rec.Size,
		Cost:      rec.Cost,
		Relations: rec.Relations,
	}
}

// TestShardedGoldenEquivalence replays each golden trace serially through
// one core.Cache and through a single-shard Sharded, and requires every
// Stats counter — float cost accumulators included — to be bit-identical:
// with one shard the concurrent front must add nothing but a lock.
func TestShardedGoldenEquivalence(t *testing.T) {
	for name, tr := range goldenTraces(t) {
		t.Run(name, func(t *testing.T) {
			ccfg := core.Config{Capacity: onePercent(tr), K: 4, Policy: core.LNCRA}
			serial, err := core.New(ccfg)
			if err != nil {
				t.Fatal(err)
			}
			s := newSharded(t, Config{Shards: 1, Cache: ccfg, Now: zeroClock})
			for i := range tr.Records {
				serial.Reference(traceReq(&tr.Records[i]))
				s.Reference(traceReq(&tr.Records[i]))
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			got, want := s.Stats().Stats, serial.Stats()
			if want.Hits == 0 {
				t.Fatal("no hits: the replay proves nothing about the hit path")
			}
			if got != want {
				t.Errorf("sharded replay diverged from serial core:\n got  %+v\n want %+v", got, want)
			}
		})
	}
}

// TestHitPathAllocs pins the locked hit path's zero-allocation guarantee
// at 1 and 16 shards, with nothing attached, with the telemetry registry,
// and with the what-if matrix at a sampling rate that leaves the hot key
// unsampled (the per-reference tax every live reference pays). The query
// is already canonical: CompressID hands such an ID back as it stands, so
// the hit neither copies nor canonicalizes it.
func TestHitPathAllocs(t *testing.T) {
	id := core.CompressID("hot query 1")
	if core.CompressID(id) != id {
		t.Fatal("canonical ID did not round-trip")
	}
	base := core.Config{Capacity: 1 << 20, K: 2, Policy: core.LNCRA}
	for _, shards := range []int{1, 16} {
		for _, attach := range []string{"nothing", "registry", "whatif"} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, attach), func(t *testing.T) {
				cfg := Config{Shards: shards, Cache: base, Now: zeroClock}
				switch attach {
				case "registry":
					cfg.Registry = telemetry.NewRegistry()
				case "whatif":
					m, err := whatif.New(whatif.Config{Base: base, SampleRate: 1 << 10})
					if err != nil {
						t.Fatal(err)
					}
					cfg.WhatIf = m
				}
				s := newSharded(t, cfg)
				defer s.Close()
				s.Reference(core.Request{QueryID: id, Time: 1, Size: 256, Cost: 50})
				req := core.Request{QueryID: id, Time: 3, Size: 256, Cost: 50}
				if allocs := testing.AllocsPerRun(1000, func() {
					if hit, _ := s.Reference(req); !hit {
						t.Fatal("locked reference missed")
					}
				}); allocs != 0 && !raceflag.Enabled {
					t.Errorf("locked hit path allocates %.1f per reference, want 0", allocs)
				}
				if cfg.WhatIf != nil {
					if rep := cfg.WhatIf.Report(0); rep.RefsSampled != 0 || rep.RefsSeen == 0 {
						t.Fatalf("what-if saw %d refs and sampled %d: the unsampled path did not run",
							rep.RefsSeen, rep.RefsSampled)
					}
				}
			})
		}
	}
}

func TestWallClockMonotonic(t *testing.T) {
	clock := WallClock()
	a := clock()
	b := clock()
	if a < 0 || b < a {
		t.Errorf("wall clock went backwards: %g then %g", a, b)
	}
}
