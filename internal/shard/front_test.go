package shard

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	flightrec "repro/internal/flight"
	"repro/internal/raceflag"
	"repro/internal/telemetry"
)

// sqlID is the bench's query shape (bench/stream.go): ~140 bytes with a
// delimiter every few, so every reference has real canonicalizing to do
// and the canonical form fits the front's 256-byte stack buffer.
func sqlID(k int) string {
	return fmt.Sprintf("SELECT d.name, SUM(f.amount) FROM fact f JOIN dim%02d d ON f.k%02d = d.key WHERE f.bucket = %07d GROUP BY d.name",
		k%64, k%64, k)
}

// TestFrontAllocations pins what the one-pass front is for. A hit on a raw,
// delimiter-bearing query string — through Reference or through Load, with
// the telemetry registry attached — canonicalizes, hashes, probes and
// charges without touching the heap. A first-sight miss allocates the
// canonical ID, the Entry and its reference window; the index links the
// entry into its signature chain without a bucket of its own, and a query
// that is already canonical is used as the ID as it stands, so it
// allocates one less.
func TestFrontAllocations(t *testing.T) {
	newCache := func() *Sharded {
		return newSharded(t, Config{
			Shards:   4,
			Cache:    core.Config{Capacity: core.Unlimited, K: 2, Policy: core.LNCRA},
			Registry: telemetry.NewRegistry(),
			Loader:   func(core.Request) (any, int64, float64, error) { return "rows", 100, 10, nil },
			Now:      zeroClock,
		})
	}

	s := newCache()
	hot := core.Request{QueryID: sqlID(7), Time: 1, Size: 100, Cost: 10, Relations: []string{"fact", "dim07"}}
	if core.CompressID(hot.QueryID) == hot.QueryID || len(core.CompressID(hot.QueryID)) > 256 {
		t.Fatalf("%q must need compressing and fit the stack buffer", hot.QueryID)
	}
	if hit, _ := s.Reference(hot); hit {
		t.Fatal("first reference hit")
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if hit, _ := s.Reference(hot); !hit {
			t.Fatal("Reference missed a resident set")
		}
	}); allocs != 0 && !raceflag.Enabled {
		t.Errorf("Reference hit allocates %.0f per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, hit, err := s.Load(hot); !hit || err != nil {
			t.Fatalf("Load of a resident set: hit %v, err %v", hit, err)
		}
	}); allocs != 0 && !raceflag.Enabled {
		t.Errorf("Load hit allocates %.0f per call, want 0", allocs)
	}
	if st := s.Stats(); st.Hits != 2002 || st.LoaderCalls != 0 {
		t.Fatalf("hits %d, loader calls %d: the hit paths did not run", st.Hits, st.LoaderCalls)
	}

	const misses = 2000
	for _, tc := range []struct {
		name      string
		canonical bool
		want      float64
	}{
		{"delimiter-bearing", false, 3},
		{"already canonical", true, 2},
	} {
		s := newCache()
		ids := make([]string, misses+1) // AllocsPerRun warms up with one extra call
		for i := range ids {
			ids[i] = sqlID(i)
			if tc.canonical {
				ids[i] = core.CompressID(ids[i])
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(misses, func() {
			if hit, _ := s.Reference(core.Request{QueryID: ids[i], Time: 1, Size: 100, Cost: 10}); hit {
				t.Fatal("first sight hit")
			}
			i++
		})
		if allocs != tc.want && !raceflag.Enabled {
			t.Errorf("%s first-sight miss allocates %.0f per call, want %.0f", tc.name, allocs, tc.want)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFrontKeepsNoCallerBytes drives every path on which the sharded front
// hands the canonical ID on — the event stream, a flight-recorder span, the
// singleflight table, the loader — from raw query strings whose canonical
// bytes lived only in a stack buffer of the call. Each call overwrites the
// previous one's buffer, so an ID that aliased it would no longer be
// canonical, nor hash to the shard that holds it.
func TestFrontKeepsNoCallerBytes(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[string]int) // event and loader IDs, by how often seen
	note := func(id string) {
		mu.Lock()
		seen[id]++
		mu.Unlock()
	}
	rec := flightrec.New(flightrec.Config{SampleEvery: 1, SlowThreshold: -1})
	s := newSharded(t, Config{
		Shards: 4,
		Cache: core.Config{Capacity: 1 << 20, K: 2, Policy: core.LNCRA,
			Sink: core.EventSinkFunc(func(ev core.Event) { note(ev.ID) })},
		Recorder: rec,
		Loader: func(req core.Request) (any, int64, float64, error) {
			note(req.QueryID)
			return "rows", 100, 10, nil
		},
	})
	const queries, rounds = 50, 3
	for round := 0; round < rounds; round++ {
		for k := 0; k < queries; k++ {
			if k%2 == 0 {
				s.Reference(core.Request{QueryID: sqlID(k), Size: 100, Cost: 10})
			} else if _, _, err := s.Load(core.Request{QueryID: sqlID(k)}); err != nil {
				t.Fatal(err)
			}
		}
	}

	want := make(map[string]bool, queries)
	for k := 0; k < queries; k++ {
		want[core.CompressID(sqlID(k))] = true
		if _, ok := s.Peek(sqlID(k)); !ok {
			t.Errorf("query %d not resident", k)
		}
	}
	if len(seen) != queries {
		t.Errorf("events and loader calls named %d distinct IDs, want %d", len(seen), queries)
	}
	for id := range seen {
		if !want[id] {
			t.Errorf("event or loader saw ID %q, not the canonical form of any query", id)
		}
	}
	spans := rec.Spans(queries * rounds)
	if len(spans) != queries*rounds {
		t.Fatalf("%d spans, want %d", len(spans), queries*rounds)
	}
	for _, sp := range spans {
		if !want[sp.ID] {
			t.Errorf("span names ID %q, not the canonical form of any query", sp.ID)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
