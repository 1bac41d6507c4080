package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// stateReplayRandom feeds n random references into the cache and returns the
// requests so a second cache can replay them identically.
func stateReplayRandom(c *Cache, seed int64, n int) []Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]Request, 0, n)
	now := 0.0
	for i := 0; i < n; i++ {
		now += rng.Float64() * 2
		r := Request{
			QueryID: fmt.Sprintf("q%d", rng.Intn(n/3+1)),
			Time:    now,
			Class:   rng.Intn(3),
			Size:    rng.Int63n(400) + 1,
			Cost:    float64(rng.Intn(1000)) + 1,
		}
		if rng.Intn(3) == 0 {
			r.Relations = []string{fmt.Sprintf("rel%d", rng.Intn(4))}
		}
		reqs = append(reqs, r)
		c.Reference(r)
	}
	return reqs
}

// entriesEqual compares the full observable record state of two caches.
func entriesEqual(t *testing.T, a, b *Cache) {
	t.Helper()
	ae, be := a.ExportState().Entries, b.ExportState().Entries
	if len(ae) != len(be) {
		t.Fatalf("entry counts differ: %d vs %d", len(ae), len(be))
	}
	for i := range ae {
		x, y := ae[i], be[i]
		if x.ID != y.ID || x.Size != y.Size || x.Cost != y.Cost || x.Class != y.Class ||
			x.Resident != y.Resident || x.TotalRefs != y.TotalRefs ||
			!reflect.DeepEqual(x.RefTimes, y.RefTimes) || !reflect.DeepEqual(x.Relations, y.Relations) {
			t.Fatalf("entry %d differs:\n  a: %+v\n  b: %+v", i, x, y)
		}
	}
}

// TestExportRestoreRoundTrip is the core warm-restart property: a
// restored cache is indistinguishable from the original — same entries,
// same Stats, and identical behavior on all future traffic.
func TestExportRestoreRoundTrip(t *testing.T) {
	for _, policy := range []PolicyKind{LNCRA, LNCR, LRU, LRUK} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := Config{Capacity: 20 << 10, K: 3, Policy: policy, MetadataOverhead: 16}
			orig := newCache(t, cfg)
			reqs := stateReplayRandom(orig, 7, 3000)

			restored := newCache(t, cfg)
			rep, err := restored.RestoreState(orig.ExportState())
			if err != nil {
				t.Fatal(err)
			}
			if rep.Resident != orig.Resident() || rep.DemotedResident != 0 || rep.Dropped != 0 {
				t.Fatalf("report %+v, want %d resident, nothing demoted/dropped", rep, orig.Resident())
			}
			if restored.Stats() != orig.Stats() {
				t.Fatalf("stats differ:\n  orig     %+v\n  restored %+v", orig.Stats(), restored.Stats())
			}
			if restored.Clock() != orig.Clock() || restored.UsedBytes() != orig.UsedBytes() ||
				restored.Retained() != orig.Retained() {
				t.Fatalf("clock/used/retained differ")
			}
			entriesEqual(t, orig, restored)
			checkInv(t, restored)

			// The decisive test: both caches must now behave identically
			// on the same future traffic.
			rng := rand.New(rand.NewSource(99))
			now := orig.Clock()
			for i := 0; i < 2000; i++ {
				now += rng.Float64()
				r := Request{
					QueryID: fmt.Sprintf("q%d", rng.Intn(len(reqs)/3+5)),
					Time:    now,
					Size:    rng.Int63n(400) + 1,
					Cost:    float64(rng.Intn(1000)) + 1,
				}
				h1, _ := orig.Reference(r)
				h2, _ := restored.Reference(r)
				if h1 != h2 {
					t.Fatalf("reference %d diverged: orig hit=%v restored hit=%v", i, h1, h2)
				}
			}
			if restored.Stats() != orig.Stats() {
				t.Fatalf("post-restore replay diverged:\n  orig     %+v\n  restored %+v", orig.Stats(), restored.Stats())
			}
			entriesEqual(t, orig, restored)
		})
	}
}

// TestRestoreRejectsWarmCache pins the precondition: restore replaces
// state wholesale and must refuse a cache that already served traffic.
func TestRestoreRejectsWarmCache(t *testing.T) {
	orig := newCache(t, Config{Capacity: 1 << 20, Policy: LNCRA})
	stateReplayRandom(orig, 1, 50)
	st := orig.ExportState()

	warm := newCache(t, Config{Capacity: 1 << 20, Policy: LNCRA})
	warm.Reference(req("x", 1, 10, 10))
	if _, err := warm.RestoreState(st); err == nil {
		t.Fatal("restore into a warm cache must fail")
	}
}

// TestRestoreRejectsBadState pins validation of hostile snapshot content:
// duplicates and impossible sizes must not reach the index.
func TestRestoreRejectsBadState(t *testing.T) {
	base := &CacheState{Clock: 10}
	for name, entries := range map[string][]EntryState{
		"empty id":       {{ID: "", Size: 5, Resident: true}},
		"duplicate":      {{ID: "a", Size: 5}, {ID: "a", Size: 6}},
		"zero size":      {{ID: "a", Size: 0, Resident: true}},
		"negative cost":  {{ID: "a", Size: 5, Cost: -1}},
		"negative size2": {{ID: "a", Size: -9}},
		"NaN cost":       {{ID: "a", Size: 5, Cost: math.NaN()}},
		"inf cost":       {{ID: "a", Size: 5, Cost: math.Inf(1)}},
		"NaN ref time":   {{ID: "a", Size: 5, RefTimes: []float64{1, math.NaN()}}},
		"negative total": {{ID: "a", Size: 5, RefTimes: []float64{1}, TotalRefs: -5}},
		"short total":    {{ID: "a", Size: 5, RefTimes: []float64{1, 2}, TotalRefs: 1}},
	} {
		st := *base
		st.Entries = entries
		c := newCache(t, Config{Capacity: 1 << 20, Policy: LNCRA})
		if _, err := c.RestoreState(&st); err == nil {
			t.Errorf("%s: restore must fail", name)
		}
	}
	// Non-finite clock state poisons every λ denominator.
	for name, st := range map[string]CacheState{
		"NaN clock": {Clock: math.NaN()},
		"inf minDt": {MinDt: math.Inf(1)},
	} {
		c := newCache(t, Config{Capacity: 1 << 20, Policy: LNCRA})
		if _, err := c.RestoreState(&st); err == nil {
			t.Errorf("%s: restore must fail", name)
		}
	}
}

// TestRestoreSmallerCapacityDemotes: restoring into a smaller cache keeps
// the most profitable residents and demotes the rest to retained records,
// never violating capacity.
func TestRestoreSmallerCapacityDemotes(t *testing.T) {
	big := newCache(t, Config{Capacity: 64 << 10, K: 2, Policy: LNCRA})
	stateReplayRandom(big, 3, 2000)
	st := big.ExportState()

	small := newCache(t, Config{Capacity: 8 << 10, K: 2, Policy: LNCRA})
	rep, err := small.RestoreState(st)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DemotedResident == 0 {
		t.Fatal("expected demotions when restoring into an 8x smaller cache")
	}
	if small.UsedBytes() > 8<<10 {
		t.Fatalf("restored cache over capacity: %d", small.UsedBytes())
	}
	if rep.Resident != small.Resident() {
		t.Fatalf("report says %d resident, cache has %d", rep.Resident, small.Resident())
	}
	checkInv(t, small)

	// No-retained-info policy: what does not fit is dropped, not demoted.
	lru := newCache(t, Config{Capacity: 8 << 10, K: 2, Policy: LRU, DisableRetainedInfo: true})
	stLRU := &CacheState{Clock: st.Clock, Entries: st.Entries}
	repLRU, err := lru.RestoreState(stLRU)
	if err != nil {
		t.Fatal(err)
	}
	if repLRU.DemotedResident != 0 || repLRU.Dropped == 0 {
		t.Fatalf("LRU restore report %+v, want drops and no demotions", repLRU)
	}
	checkInv(t, lru)
}

// TestRestoreEmitsRestoreEvents: sinks that track cached content must see
// one EventRestore per restored resident entry.
func TestRestoreEmitsRestoreEvents(t *testing.T) {
	orig := newCache(t, Config{Capacity: 32 << 10, K: 2, Policy: LNCRA})
	stateReplayRandom(orig, 11, 500)
	st := orig.ExportState()

	var restores int
	var other int
	sink := EventSinkFunc(func(ev Event) {
		switch ev.Kind {
		case EventRestore:
			restores++
			if ev.Entry == nil || !ev.Entry.Resident() {
				t.Error("restore event must carry a resident entry")
			}
		default:
			other++
		}
	})
	restored := newCache(t, Config{Capacity: 32 << 10, K: 2, Policy: LNCRA, Sink: sink})
	rep, err := restored.RestoreState(st)
	if err != nil {
		t.Fatal(err)
	}
	if restores != rep.Resident {
		t.Fatalf("%d restore events for %d restored residents", restores, rep.Resident)
	}
	if other != 0 {
		t.Fatalf("restore emitted %d non-restore events", other)
	}
}

// TestWindowExportRestore pins the reference-window round trip, including
// the shrink-on-restore rule (only the most recent K times survive).
func TestWindowExportRestore(t *testing.T) {
	w := newRefWindow(3)
	for _, ts := range []float64{1, 2, 5, 9} {
		w.record(ts)
	}
	times := w.exportInto(nil)
	if want := []float64{2, 5, 9}; !reflect.DeepEqual(times, want) {
		t.Fatalf("export = %v, want %v", times, want)
	}
	same := restoreWindow(3, times, w.totalRefs())
	if !reflect.DeepEqual(same.exportInto(nil), times) || same.totalRefs() != 4 {
		t.Fatalf("round trip = %v/%d", same.exportInto(nil), same.totalRefs())
	}
	shrunk := restoreWindow(2, times, w.totalRefs())
	if want := []float64{5, 9}; !reflect.DeepEqual(shrunk.exportInto(nil), want) {
		t.Fatalf("shrunk restore = %v, want %v", shrunk.exportInto(nil), want)
	}
}
