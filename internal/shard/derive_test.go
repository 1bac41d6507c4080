package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/derive"
	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/storage"
)

// deriveTestDB is a small one-relation database the loader can execute
// against quickly.
func deriveTestDB() *relation.Database {
	db := &relation.Database{
		Name:     "mini",
		PageSize: 512,
		Relations: map[string]*relation.Relation{
			"fact": {
				Name: "fact", Rows: 400, Seed: 0xdec0de,
				Columns: []relation.Column{
					{Name: "id", Kind: relation.KindSequential, Width: 8},
					{Name: "day", Kind: relation.KindUniform, Cardinality: 50, Width: 4},
					{Name: "amt", Kind: relation.KindUniform, Cardinality: 83, Width: 8},
				},
			},
		},
	}
	return db
}

// planLoader executes the descriptor registered for a query ID through
// the engine, counting executions per ID.
type planLoader struct {
	eng   *engine.Engine
	mu    sync.Mutex
	plans map[string]*engine.Descriptor
	execs map[string]*atomic.Int64
}

func (l *planLoader) register(id string, d *engine.Descriptor) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.plans[core.CompressID(id)] = d
	l.execs[core.CompressID(id)] = &atomic.Int64{}
}

func (l *planLoader) load(req core.Request) (any, int64, float64, error) {
	l.mu.Lock()
	d := l.plans[req.QueryID]
	ctr := l.execs[req.QueryID]
	l.mu.Unlock()
	if d == nil {
		return nil, 0, 0, fmt.Errorf("no plan registered for %q", req.QueryID)
	}
	ctr.Add(1)
	var sink storage.CountingSink
	res, err := l.eng.Execute(d.Plan(), &sink)
	if err != nil {
		return nil, 0, 0, err
	}
	return res, res.Bytes(), float64(sink.N), nil
}

// TestLoadCoalescesOntoOneDerivation drives N concurrent plan-carrying
// Loads of a query a cached set subsumes, with a Deriver attached: Load
// never derives (its remote cost is unknown until the loader runs), so the
// flight coalesces onto exactly one loader execution and every caller
// receives the loader's rows. The deriver still indexes the admitted set,
// and a later Reference of the same plan — which carries its cost — is a
// derived hit. Run under -race by the concurrency CI job.
func TestLoadCoalescesOntoOneDerivation(t *testing.T) {
	db := deriveTestDB()
	eng := engine.New(db)
	dvr := derive.New()
	loader := &planLoader{eng: eng, plans: map[string]*engine.Descriptor{}, execs: map[string]*atomic.Int64{}}

	s, err := New(Config{
		Shards:  4,
		Cache:   core.Config{Capacity: 1 << 20, K: 2, Policy: core.LNCRA},
		Loader:  loader.load,
		Deriver: dvr,
	})
	if err != nil {
		t.Fatal(err)
	}

	anc := &engine.Descriptor{
		Rel:   "fact",
		Preds: []engine.Pred{{Col: "day", Op: engine.OpRange, Lo: 0, Hi: 40}},
		Cols:  []string{"day", "amt"},
	}
	child := &engine.Descriptor{
		Rel:   "fact",
		Preds: []engine.Pred{{Col: "day", Op: engine.OpRange, Lo: 5, Hi: 20}},
		Cols:  []string{"day", "amt"},
	}
	loader.register("anc", anc)
	loader.register("child", child)

	// Seed the ancestor through the loader.
	if _, _, err := s.Load(core.Request{QueryID: "anc", Relations: []string{"fact"}, Plan: anc}); err != nil {
		t.Fatal(err)
	}

	var remote storage.CountingSink
	want, err := eng.Execute(child.Plan(), &remote)
	if err != nil {
		t.Fatal(err)
	}
	sameRows := func(who string, res *engine.Result) {
		t.Helper()
		if res == nil {
			t.Fatalf("%s received no *engine.Result", who)
		}
		if len(res.Rows) != len(want.Rows) {
			t.Fatalf("%s: %d rows, want %d", who, len(res.Rows), len(want.Rows))
		}
		for i := range want.Rows {
			for j := range want.Rows[i] {
				if res.Rows[i][j] != want.Rows[i][j] {
					t.Fatalf("%s row %d differs: %v vs %v", who, i, res.Rows[i], want.Rows[i])
				}
			}
		}
	}

	const workers = 32
	var wg sync.WaitGroup
	results := make([]*engine.Result, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload, _, err := s.Load(core.Request{QueryID: "child", Relations: []string{"fact"}, Plan: child})
			if err != nil {
				errs[w] = err
				return
			}
			results[w], _ = payload.(*engine.Result)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for w, res := range results {
		sameRows(fmt.Sprintf("worker %d", w), res)
	}

	if n := loader.execs[core.CompressID("child")].Load(); n != 1 {
		t.Fatalf("loader executed the child query %d times, want exactly 1 (singleflight coalescing)", n)
	}
	st := s.Stats()
	if st.DerivedHits != 0 {
		t.Fatalf("DerivedHits = %d after the Loads, want 0 (Load never derives)", st.DerivedHits)
	}
	if st.LoaderCalls != 2 {
		t.Fatalf("LoaderCalls = %d, want 2 (the ancestor seed and one child execution)", st.LoaderCalls)
	}
	// The same plan under another ID, referenced with its remote cost,
	// derives from the content the Loads admitted.
	hit, payload := s.Reference(core.Request{QueryID: "child again", Size: want.Bytes(),
		Cost: float64(remote.N), Relations: []string{"fact"}, Plan: child})
	if !hit {
		t.Fatal("Reference of the loaded plan missed, want a derived hit")
	}
	res, _ := payload.(*engine.Result)
	sameRows("the derived Reference", res)
	if st := s.Stats(); st.DerivedHits != 1 || st.LoaderCalls != 2 {
		t.Fatalf("after the Reference: DerivedHits = %d LoaderCalls = %d, want 1/2", st.DerivedHits, st.LoaderCalls)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadDerivedStaleNotCached ensures an invalidation landing while a
// plan-carrying Load runs its loader fences the result out of the cache,
// with a Deriver attached exactly as without one.
func TestLoadDerivedStaleNotCached(t *testing.T) {
	gate := make(chan struct{})
	released := make(chan struct{})
	blockingLoader := func(req core.Request) (any, int64, float64, error) {
		close(released)
		<-gate
		return "rows", 64, 100, nil
	}
	dvr := derive.New()
	s, err := New(Config{
		Shards:  1,
		Cache:   core.Config{Capacity: 1 << 20, K: 2, Policy: core.LNCRA},
		Loader:  blockingLoader,
		Deriver: dvr,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The first load blocks in the loader while we invalidate its
	// relation; the result must reach the caller but not the cache.
	done := make(chan struct{})
	go func() {
		defer close(done)
		payload, hit, err := s.Load(core.Request{QueryID: "q", Relations: []string{"fact"},
			Plan: &engine.Descriptor{Rel: "fact", Cols: []string{"day"}}})
		if err != nil || hit || payload != "rows" {
			t.Errorf("load: payload=%v hit=%v err=%v", payload, hit, err)
		}
	}()
	<-released
	s.Invalidate("fact")
	close(gate)
	<-done
	if _, ok := s.Peek("q"); ok {
		t.Fatal("stale result was cached")
	}
	if st := s.Stats(); st.ExternalMisses != 1 || st.Admissions != 0 {
		t.Fatalf("stats = external misses %d admissions %d, want 1/0", st.ExternalMisses, st.Admissions)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
