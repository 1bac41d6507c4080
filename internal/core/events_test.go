package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// eventTally accumulates the event stream into the same quantities Stats
// counts, so replays can assert event/stat equivalence.
type eventTally struct {
	byKind    [numEventKinds]int64
	costTotal float64
	costSaved float64
	bytes     int64
	byClass   map[int]int64
}

func (t *eventTally) Emit(ev Event) {
	t.byKind[ev.Kind]++
	switch ev.Kind {
	case EventHit, EventMissAdmitted, EventMissRejected, EventExternalMiss:
		t.costTotal += ev.Cost
		if ev.Kind == EventHit {
			t.costSaved += ev.Cost
			t.bytes += ev.Size
		}
		if t.byClass == nil {
			t.byClass = make(map[int]int64)
		}
		t.byClass[ev.Class]++
	}
}

// checkTallyMatches asserts that the cache's Stats are exactly the sum of
// the emitted events.
func checkTallyMatches(t *testing.T, c *Cache, tally *eventTally) {
	t.Helper()
	s := c.Stats()
	refs := tally.byKind[EventHit] + tally.byKind[EventMissAdmitted] +
		tally.byKind[EventMissRejected] + tally.byKind[EventExternalMiss]
	if refs != s.References {
		t.Fatalf("events sum to %d references, Stats has %d", refs, s.References)
	}
	if tally.byKind[EventHit] != s.Hits {
		t.Fatalf("hit events %d, Stats.Hits %d", tally.byKind[EventHit], s.Hits)
	}
	if tally.byKind[EventMissAdmitted] != s.Admissions {
		t.Fatalf("admit events %d, Stats.Admissions %d", tally.byKind[EventMissAdmitted], s.Admissions)
	}
	if tally.byKind[EventMissRejected] != s.Rejections {
		t.Fatalf("reject events %d, Stats.Rejections %d", tally.byKind[EventMissRejected], s.Rejections)
	}
	if tally.byKind[EventExternalMiss] != s.ExternalMisses {
		t.Fatalf("external-miss events %d, Stats.ExternalMisses %d", tally.byKind[EventExternalMiss], s.ExternalMisses)
	}
	if tally.byKind[EventEvict] != s.Evictions {
		t.Fatalf("evict events %d, Stats.Evictions %d", tally.byKind[EventEvict], s.Evictions)
	}
	if tally.byKind[EventInvalidate] != s.Invalidations {
		t.Fatalf("invalidate events %d, Stats.Invalidations %d", tally.byKind[EventInvalidate], s.Invalidations)
	}
	if tally.costTotal != s.CostTotal {
		t.Fatalf("event cost total %g, Stats.CostTotal %g", tally.costTotal, s.CostTotal)
	}
	if tally.costSaved != s.CostSaved {
		t.Fatalf("event cost saved %g, Stats.CostSaved %g", tally.costSaved, s.CostSaved)
	}
	if tally.bytes != s.BytesServed {
		t.Fatalf("event bytes served %d, Stats.BytesServed %d", tally.bytes, s.BytesServed)
	}
}

// TestPropertyEventsMatchStats replays pseudo-random traces (with
// invalidation churn and occasional Account charges) across the policy
// grid and asserts that Stats is exactly the sum of the emitted events —
// the core guarantee the telemetry spine rests on.
func TestPropertyEventsMatchStats(t *testing.T) {
	for _, cfg := range allSetups() {
		cfg := cfg
		name := fmt.Sprintf("%s-scan-meta%d-cap%d", cfg.Policy, cfg.MetadataOverhead, cfg.Capacity)
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				tally := &eventTally{}
				cfg := cfg
				cfg.Sink = tally
				c, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				now := 0.0
				for i := 0; i < 800; i++ {
					now += rng.ExpFloat64()
					id := fmt.Sprintf("q%d", rng.Intn(60))
					h := Signature(id)
					size := int64(h%300) + 1
					cost := float64(h%5000) + 1
					class := int(h % 3)
					rels := []string{fmt.Sprintf("r%d", h%5)}
					req := Request{QueryID: id, Time: now, Class: class, Size: size, Cost: cost, Relations: rels}
					switch {
					case rng.Intn(41) == 0:
						// External outcome, resolved outside the lifecycle.
						c.Account(req, rng.Intn(2) == 0)
					default:
						c.Reference(req)
					}
					if rng.Intn(97) == 0 {
						c.Invalidate(fmt.Sprintf("r%d", rng.Intn(5)))
					}
				}
				if err := c.CheckInvariants(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				checkTallyMatches(t, c, tally)
			}
		})
	}
}

// TestAccount verifies the Account API's charging rules: hit=true accrues
// the savings counters, hit=false accrues ExternalMisses, and both count
// the reference and its cost.
func TestAccount(t *testing.T) {
	var events []Event
	c := newCache(t, Config{Capacity: 1000, Policy: LNCRA,
		Sink: EventSinkFunc(func(ev Event) { events = append(events, ev) })})

	c.Account(Request{QueryID: "ext", Time: 1, Class: 2, Size: 40, Cost: 70}, false)
	s := c.Stats()
	if s.References != 1 || s.ExternalMisses != 1 || s.Hits != 0 {
		t.Fatalf("after external miss: %+v", s)
	}
	if s.CostTotal != 70 || s.CostSaved != 0 {
		t.Fatalf("external miss mischarged: %+v", s)
	}

	c.Account(Request{QueryID: "elsewhere", Time: 2, Size: 30, Cost: 50}, true)
	s = c.Stats()
	if s.References != 2 || s.Hits != 1 || s.CostSaved != 50 || s.BytesServed != 30 {
		t.Fatalf("after external hit: %+v", s)
	}
	if s.ExternalMisses != 1 {
		t.Fatalf("external hit must not count as external miss: %+v", s)
	}

	// Nothing was inserted, looked up or evicted.
	if c.Resident() != 0 || c.Retained() != 0 {
		t.Fatalf("Account touched cache content: resident=%d retained=%d", c.Resident(), c.Retained())
	}
	if len(events) != 2 || events[0].Kind != EventExternalMiss || events[1].Kind != EventHit {
		t.Fatalf("unexpected events: %+v", events)
	}
	if events[0].Class != 2 {
		t.Fatalf("class not carried on event: %+v", events[0])
	}
}

// TestHitPathAllocationFree asserts the hot hit path stays allocation-free
// with a sink attached — the telemetry spine must not tax every hit with
// garbage.
func TestHitPathAllocationFree(t *testing.T) {
	var hits int64
	c := newCache(t, Config{Capacity: 1 << 20, K: 4, Policy: LNCRA,
		Sink: EventSinkFunc(func(ev Event) {
			if ev.Kind == EventHit {
				hits++
			}
		})})
	id := CompressID("hot query")
	sig := Signature(id)
	c.ReferenceCanonical(Request{QueryID: id, Time: 1, Size: 100, Cost: 50}, sig)

	now := 2.0
	allocs := testing.AllocsPerRun(1000, func() {
		now++
		c.ReferenceCanonical(Request{QueryID: id, Time: now, Size: 100, Cost: 50}, sig)
	})
	if allocs != 0 {
		t.Fatalf("hit path allocates %.1f objects per reference with a sink attached", allocs)
	}
	if hits == 0 {
		t.Fatal("sink observed no hits")
	}
}
