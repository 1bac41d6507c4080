package core

import (
	"fmt"
	"testing"
	"unsafe"
)

// req is a test shorthand for building requests.
func req(id string, at float64, size int64, cost float64) Request {
	return Request{QueryID: id, Time: at, Size: size, Cost: cost}
}

func newCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func checkInv(t *testing.T, c *Cache) {
	t.Helper()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Capacity: 0}); err == nil {
		t.Error("zero capacity must be rejected")
	}
	if _, err := New(Config{Capacity: -5}); err == nil {
		t.Error("negative capacity must be rejected")
	}
	if _, err := New(Config{Capacity: 10, MetadataOverhead: -1}); err == nil {
		t.Error("negative overhead must be rejected")
	}
	c, err := New(Config{Capacity: 10, K: 0})
	if err != nil {
		t.Fatal(err)
	}
	if c.Config().K != 1 {
		t.Error("K must default to 1")
	}
}

func TestHitMissBasics(t *testing.T) {
	c := newCache(t, Config{Capacity: 1000, K: 2, Policy: LNCRA})
	hit, _ := c.Reference(Request{QueryID: "q1", Time: 1, Size: 100, Cost: 50, Payload: "rows"})
	if hit {
		t.Fatal("first reference cannot hit")
	}
	hit, payload := c.Reference(req("q1", 2, 100, 50))
	if !hit {
		t.Fatal("second reference must hit")
	}
	if payload != "rows" {
		t.Fatalf("payload = %v, want the stored retrieved set", payload)
	}
	s := c.Stats()
	if s.References != 2 || s.Hits != 1 || s.CostTotal != 100 || s.CostSaved != 50 {
		t.Fatalf("stats = %+v", s)
	}
	if s.HitRatio() != 0.5 || s.CostSavingsRatio() != 0.5 {
		t.Fatalf("HR=%g CSR=%g", s.HitRatio(), s.CostSavingsRatio())
	}
	checkInv(t, c)
}

func TestQueryIDCompressionInLookup(t *testing.T) {
	c := newCache(t, Config{Capacity: 1000, Policy: LRU})
	c.Reference(req("select  a,b from t", 1, 10, 5))
	hit, _ := c.Reference(req("select a, b  from t;", 2, 10, 5))
	if !hit {
		t.Fatal("differently spaced query strings must map to the same entry")
	}
}

func TestUnconditionalAdmissionWithFreeSpace(t *testing.T) {
	// Figure 1: "RSi not in cache and avail ≥ si: cache RSi" — no admission
	// test when the set fits in free space, even for LNC-RA.
	c := newCache(t, Config{Capacity: 1000, Policy: LNCRA})
	c.Reference(req("cheapbig", 1, 900, 1)) // terrible profit but fits
	if _, ok := c.Peek("cheapbig"); !ok {
		t.Fatal("set fitting in free space must be cached")
	}
}

func TestAdmissionRejectsLowEProfit(t *testing.T) {
	c := newCache(t, Config{Capacity: 1000, Policy: LNCRA})
	c.Reference(req("dear1", 1, 400, 4000))
	c.Reference(req("dear2", 2, 400, 4000))
	// First-ever set, cache full: e-profit(new) = 10/500 = 0.02 must beat
	// e-profit(victims) = 4000/400 = 10. It does not: rejected.
	c.Reference(req("bulky", 3, 500, 10))
	if _, ok := c.Peek("bulky"); ok {
		t.Fatal("low e-profit set must be rejected when eviction is needed")
	}
	if _, ok := c.Peek("dear1"); !ok {
		t.Fatal("existing high-profit sets must survive")
	}
	if c.Stats().Rejections != 1 {
		t.Fatalf("rejections = %d, want 1", c.Stats().Rejections)
	}
	// The rejected set's reference info is retained (§2.4).
	if c.Retained() != 1 {
		t.Fatalf("retained = %d, want 1", c.Retained())
	}
	checkInv(t, c)
}

func TestAdmissionAcceptsHighEProfit(t *testing.T) {
	c := newCache(t, Config{Capacity: 1000, Policy: LNCRA})
	c.Reference(req("cheap1", 1, 400, 1))
	c.Reference(req("cheap2", 2, 400, 1))
	// e-profit(new) = 9000/500 = 18 > e-profit(victims) = 2/800: admitted.
	c.Reference(req("valuable", 3, 500, 9000))
	if _, ok := c.Peek("valuable"); !ok {
		t.Fatal("high e-profit set must be admitted")
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("admission under pressure must evict")
	}
	checkInv(t, c)
}

func TestAdmissionUsesRetainedHistory(t *testing.T) {
	// A set rejected at first sight must eventually be admitted once its
	// retained reference information shows a high rate (§2.4: "a retrieved
	// set that is initially rejected from cache may be admitted after a
	// sufficient reference information is collected").
	c := newCache(t, Config{Capacity: 1000, K: 3, Policy: LNCRA})
	c.Reference(req("occupant1", 1, 400, 500))
	c.Reference(req("occupant2", 2, 400, 500))
	// comeback's e-profit (400/500 = 0.8) loses against the victims'
	// aggregate (500/400 = 1.25), so the first submission is rejected;
	// the retained reference information must get it admitted later.
	admittedAt := -1
	for i := 0; i < 8; i++ {
		at := 10 + float64(i)
		c.Reference(req("comeback", at, 500, 400))
		if _, ok := c.Peek("comeback"); ok {
			admittedAt = i
			break
		}
	}
	if admittedAt <= 0 {
		t.Fatalf("comeback admitted at attempt %d; want a later-than-first admission", admittedAt)
	}
	checkInv(t, c)
}

func TestTooLargeToEverFit(t *testing.T) {
	c := newCache(t, Config{Capacity: 100, Policy: LNCRA})
	c.Reference(req("whale", 1, 500, 1e6))
	if _, ok := c.Peek("whale"); ok {
		t.Fatal("sets larger than the cache cannot be admitted")
	}
	if c.Stats().Rejections != 1 {
		t.Fatalf("rejections = %d", c.Stats().Rejections)
	}
	// Its reference info is still retained for later (it may shrink, or
	// the admission decision may be revisited — the paper retains it).
	if c.Retained() != 1 {
		t.Fatalf("retained = %d, want 1", c.Retained())
	}
	checkInv(t, c)
}

func TestLRUEvictionOrder(t *testing.T) {
	c := newCache(t, Config{Capacity: 300, Policy: LRU})
	c.Reference(req("a", 1, 100, 10))
	c.Reference(req("b", 2, 100, 10))
	c.Reference(req("c", 3, 100, 10))
	c.Reference(req("a", 4, 100, 10)) // refresh a; b is now LRU
	c.Reference(req("d", 5, 100, 10)) // evicts b
	if _, ok := c.Peek("b"); ok {
		t.Fatal("LRU must evict the least recently used entry")
	}
	for _, id := range []string{"a", "c", "d"} {
		if _, ok := c.Peek(id); !ok {
			t.Fatalf("%s unexpectedly evicted", id)
		}
	}
	checkInv(t, c)
}

func TestLCSEvictsLargestFirst(t *testing.T) {
	c := newCache(t, Config{Capacity: 350, Policy: LCS})
	c.Reference(req("large", 1, 200, 10))
	c.Reference(req("small", 2, 100, 10))
	c.Reference(req("mid", 3, 150, 10)) // needs 100: LCS evicts "large"
	if _, ok := c.Peek("large"); ok {
		t.Fatal("LCS must evict the largest set first")
	}
	if _, ok := c.Peek("small"); !ok {
		t.Fatal("small set must survive under LCS")
	}
	checkInv(t, c)
}

func TestLFUEvictsLeastFrequent(t *testing.T) {
	c := newCache(t, Config{Capacity: 300, Policy: LFU})
	c.Reference(req("hot", 1, 100, 10))
	c.Reference(req("hot", 2, 100, 10))
	c.Reference(req("hot", 3, 100, 10))
	c.Reference(req("cold", 4, 100, 10))
	c.Reference(req("warm", 5, 100, 10))
	c.Reference(req("warm", 6, 100, 10))
	c.Reference(req("new", 7, 100, 10)) // evicts cold (1 lifetime ref)
	if _, ok := c.Peek("cold"); ok {
		t.Fatal("LFU must evict the least frequently used entry")
	}
	if _, ok := c.Peek("hot"); !ok {
		t.Fatal("hot entry must survive under LFU")
	}
	checkInv(t, c)
}

func TestLNCREvictsLowestProfit(t *testing.T) {
	c := newCache(t, Config{Capacity: 250, Policy: LNCR})
	c.Reference(req("dear", 1, 100, 10000))
	c.Reference(req("cheap", 2, 100, 1))
	c.Reference(req("dear", 3, 100, 10000))
	c.Reference(req("cheap", 4, 100, 1))
	c.Reference(req("new", 5, 100, 50)) // must evict "cheap": lowest λc/s
	if _, ok := c.Peek("cheap"); ok {
		t.Fatal("LNC-R must evict the lowest-profit set")
	}
	if _, ok := c.Peek("dear"); !ok {
		t.Fatal("high-profit set must survive under LNC-R")
	}
	checkInv(t, c)
}

func TestCapacityNeverExceeded(t *testing.T) {
	c := newCache(t, Config{Capacity: 1000, Policy: LRU})
	for i := 0; i < 300; i++ {
		c.Reference(req(fmt.Sprintf("q%d", i%40), float64(i+1), int64(37+11*(i%13)), float64(i%7+1)))
		if c.UsedBytes() > 1000 {
			t.Fatalf("used %d exceeds capacity after request %d", c.UsedBytes(), i)
		}
	}
	checkInv(t, c)
}

func TestMetadataOverheadAccounting(t *testing.T) {
	c := newCache(t, Config{Capacity: 1000, Policy: LNCRA, MetadataOverhead: 100})
	c.Reference(req("a", 1, 300, 10))
	if got, want := c.UsedBytes(), int64(400); got != want {
		t.Fatalf("UsedBytes = %d, want %d (payload + overhead)", got, want)
	}
	c.Reference(req("b", 2, 500, 10))
	if got, want := c.UsedBytes(), int64(1000); got != want {
		t.Fatalf("UsedBytes = %d, want %d", got, want)
	}
	// A third 300-byte set does not fit (would need 400 incl. overhead).
	c.Reference(req("c", 3, 300, 1e9))
	if c.UsedBytes() > 1000 {
		t.Fatalf("capacity exceeded with overhead accounting: %d", c.UsedBytes())
	}
	checkInv(t, c)
}

func TestRetainedInfoSurvivesEviction(t *testing.T) {
	c := newCache(t, Config{Capacity: 200, Policy: LNCR, K: 2})
	c.Reference(req("first", 1, 200, 10))
	c.Reference(req("second", 2, 200, 1000)) // evicts first
	if _, ok := c.Peek("first"); ok {
		t.Fatal("first must be evicted")
	}
	if c.Retained() != 1 {
		t.Fatalf("retained = %d, want 1 (evicted set keeps its reference info)", c.Retained())
	}
	checkInv(t, c)
}

func TestDisableRetainedInfo(t *testing.T) {
	c := newCache(t, Config{Capacity: 200, Policy: LNCR, K: 2, DisableRetainedInfo: true})
	c.Reference(req("first", 1, 200, 10))
	c.Reference(req("second", 2, 200, 1000))
	if c.Retained() != 0 {
		t.Fatalf("retained = %d, want 0 when disabled", c.Retained())
	}
	checkInv(t, c)
}

func TestRetainedPruningByProfit(t *testing.T) {
	// §2.4: retained info is dropped when its profit falls below the least
	// profit among cached sets.
	c := newCache(t, Config{Capacity: 400, Policy: LNCRA, K: 2})
	// A worthless one-shot that gets evicted and retained.
	c.Reference(req("oneshot", 1, 400, 1))
	// Hot valuable sets take over the cache.
	for i := 0; i < 60; i++ {
		at := 2 + float64(i)
		c.Reference(req("hotA", at, 200, 5000))
		c.Reference(req("hotB", at+0.5, 200, 5000))
	}
	if c.Retained() == 0 {
		t.Fatal("the evicted one-shot's info must be retained until a pruning pass")
	}
	// The next miss runs the pass; the worthless probe it retains goes too.
	pruneAtNextMiss(c)
	c.Reference(req("probe", 70, 200, 1))
	if c.Retained() != 0 {
		t.Fatalf("retained = %d; the stale one-shot's info must be pruned", c.Retained())
	}
	if c.Stats().RetainedDropped == 0 {
		t.Fatal("prune counter not incremented")
	}
	checkInv(t, c)
}

func TestLRUKRetainedTimeout(t *testing.T) {
	c := newCache(t, Config{Capacity: 200, Policy: LRUK, K: 2})
	c.Reference(req("gone", 1, 200, 10))
	c.Reference(req("stay", 2, 200, 10)) // evicts gone; info retained
	if c.Retained() != 1 {
		t.Fatalf("retained = %d, want 1", c.Retained())
	}
	c.Reference(req("stay", 360, 200, 10)) // keep stay's info young
	// Past the 300 s retention period: "gone" (last reference t=1) times
	// out, while "stay" (last reference t=360, evicted now) is retained.
	pruneAtNextMiss(c)
	c.Reference(req("later", 400, 200, 10))
	if c.Retained() != 1 {
		t.Fatalf("retained = %d after timeout pass, want 1", c.Retained())
	}
	found := false
	for e := range c.retained {
		if e.ID == CompressID("gone") {
			found = true
		}
	}
	if found {
		t.Fatal("timed-out retained record still present")
	}
	checkInv(t, c)
}

// pruneAtNextMiss makes the cache's next miss run the retained-information
// pruning pass, which otherwise runs every pruneEvery misses.
func pruneAtNextMiss(c *Cache) { c.missesSincePrune = pruneEvery - 1 }

func TestInvalidate(t *testing.T) {
	c := newCache(t, Config{Capacity: 1000, Policy: LNCRA})
	c.Reference(Request{QueryID: "q1", Time: 1, Size: 100, Cost: 10, Relations: []string{"orders", "lineitem"}})
	c.Reference(Request{QueryID: "q2", Time: 2, Size: 100, Cost: 10, Relations: []string{"customer"}})
	c.Reference(Request{QueryID: "q3", Time: 3, Size: 100, Cost: 10, Relations: []string{"lineitem"}})
	dropped := c.Invalidate("lineitem")
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	if _, ok := c.Peek("q2"); !ok {
		t.Fatal("unrelated entry must survive invalidation")
	}
	if _, ok := c.Peek("q1"); ok {
		t.Fatal("q1 must be invalidated")
	}
	if got := c.Stats().Invalidations; got != 2 {
		t.Fatalf("invalidations = %d, want 2", got)
	}
	// Invalidation drops reference info entirely: a re-reference is a
	// fresh first-ever submission.
	hit, _ := c.Reference(Request{QueryID: "q1", Time: 4, Size: 100, Cost: 10, Relations: []string{"orders"}})
	if hit {
		t.Fatal("invalidated entry cannot hit")
	}
	checkInv(t, c)
}

func TestInvalidateUnknownRelation(t *testing.T) {
	c := newCache(t, Config{Capacity: 1000, Policy: LRU})
	c.Reference(req("q", 1, 10, 1))
	if got := c.Invalidate("nonexistent"); got != 0 {
		t.Fatalf("dropped = %d, want 0", got)
	}
	checkInv(t, c)
}

func TestFragmentationSampling(t *testing.T) {
	c := newCache(t, Config{Capacity: 1000, Policy: LRU})
	c.Reference(req("half", 1, 500, 10))
	c.Reference(req("half", 2, 500, 10))
	s := c.Stats()
	if s.FragSamples != 2 {
		t.Fatalf("samples = %d, want 2", s.FragSamples)
	}
	// First sample: cache was empty before the insert completed → 0.5
	// unused; second: still 0.5 unused.
	if got := s.AvgFragmentation(); got != 0.5 {
		t.Fatalf("avg fragmentation = %g, want 0.5", got)
	}
	if got := s.AvgUtilization(); got != 0.5 {
		t.Fatalf("avg utilization = %g, want 0.5", got)
	}
}

func TestInfiniteCacheNeverEvicts(t *testing.T) {
	c := newCache(t, Config{Capacity: Unlimited, Policy: LNCRA})
	for i := 0; i < 500; i++ {
		c.Reference(req(fmt.Sprintf("q%d", i), float64(i+1), 1<<20, 100))
	}
	if c.Stats().Evictions != 0 || c.Stats().Rejections != 0 {
		t.Fatal("infinite cache must neither evict nor reject")
	}
	if c.Resident() != 500 {
		t.Fatalf("resident = %d, want 500", c.Resident())
	}
	if c.Stats().FragSamples != 0 {
		t.Fatal("fragmentation is not sampled for the infinite cache")
	}
	checkInv(t, c)
}

func TestPeekDoesNotTouchStats(t *testing.T) {
	c := newCache(t, Config{Capacity: 100, Policy: LRU})
	c.Reference(req("q", 1, 10, 1))
	before := c.Stats()
	if _, ok := c.Peek("q"); !ok {
		t.Fatal("peek must find the entry")
	}
	if _, ok := c.Peek("absent"); ok {
		t.Fatal("peek must miss absent entries")
	}
	if c.Stats() != before {
		t.Fatal("peek must not modify statistics")
	}
}

func TestEntriesSnapshot(t *testing.T) {
	c := newCache(t, Config{Capacity: 1000, Policy: LRU})
	c.Reference(req("bbb", 1, 10, 1))
	c.Reference(req("aaa", 2, 10, 1))
	es := c.Entries()
	if len(es) != 2 || es[0].ID != "aaa" || es[1].ID != "bbb" {
		t.Fatalf("entries snapshot wrong: %v", es)
	}
}

func TestClockMonotonic(t *testing.T) {
	c := newCache(t, Config{Capacity: 100, Policy: LRU})
	c.Reference(req("a", 5, 10, 1))
	c.Reference(req("b", 3, 10, 1)) // out-of-order timestamp
	if c.Clock() != 5 {
		t.Fatalf("clock = %g, want 5 (never goes backward)", c.Clock())
	}
}

func TestSignatureCollisionHandling(t *testing.T) {
	// Force two entries onto one signature chain: the exact-match loop must
	// distinguish them.
	c := newCache(t, Config{Capacity: 1000, Policy: LRU})
	a := &Entry{ID: "ida", Sig: 42, Size: 10, resident: true, rc: c.rc}
	a.window = newRefWindow(1)
	b := &Entry{ID: "idb", Sig: 42, Size: 10, resident: true, rc: c.rc}
	b.window = newRefWindow(1)
	c.indexInsert(a)
	c.indexInsert(b)
	if c.index[42] != b || b.sigNext != a || a.sigNext != nil {
		t.Fatal("indexInsert did not chain the colliding entries")
	}
	if got := c.lookup("ida", 42); got != a {
		t.Fatal("collision chain lookup failed past the head")
	}
	if got := c.lookup("idb", 42); got != b {
		t.Fatal("collision bucket lookup failed")
	}
	if got := c.lookup("idc", 42); got != nil {
		t.Fatal("lookup invented an entry")
	}
}

// TestEntrySize pins the Entry at 176 bytes on 64-bit platforms: the
// index chain pointer fits only because evIdx is an int32 packed beside
// resident, and one more word would move every entry into the 192-byte
// size class.
func TestEntrySize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if n := unsafe.Sizeof(Entry{}); n != 176 {
		t.Fatalf("Entry is %d bytes, want 176", n)
	}
}

// TestSignatureChainRemoval unlinks the head, the middle and the tail of a
// three-entry signature chain, checking invariants after each removal.
// The IDs are a two-block FNV-1a multicollision: each pair of 13-byte
// blocks below leaves the hash in the same state, so any choice of one
// block from each pair gives the same Signature.
func TestSignatureChainRemoval(t *testing.T) {
	const a1, b1 = "ay1xpg4wc1tig", "wg0ikmzrgv44k"
	const a2, b2 = "umd5fbza221ih", "v053nxpxkgrbp"
	ids := [3]string{a1 + a2, a1 + b2, b1 + a2}
	sig := Signature(ids[0])
	for _, id := range ids[1:] {
		if Signature(id) != sig {
			t.Fatalf("%q does not collide with %q", id, ids[0])
		}
	}
	// Inserts push onto the chain's head, so ids[2] is the head, ids[1]
	// the middle and ids[0] the tail.
	for _, victim := range []int{2, 1, 0} {
		c := newCache(t, Config{Capacity: Unlimited, Policy: LRU})
		for i, id := range ids {
			r := req(id, float64(i+1), 10, 1)
			r.Relations = []string{fmt.Sprint("rel", i)}
			c.Reference(r)
		}
		var chain []string
		for e := c.index[sig]; e != nil; e = e.sigNext {
			chain = append(chain, e.ID)
		}
		if want := []string{ids[2], ids[1], ids[0]}; fmt.Sprint(chain) != fmt.Sprint(want) {
			t.Fatalf("chain = %q, want %q", chain, want)
		}
		if n := c.Invalidate(fmt.Sprint("rel", victim)); n != 1 {
			t.Fatalf("invalidating entry %d dropped %d sets", victim, n)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("after removing entry %d: %v", victim, err)
		}
		for i, id := range ids {
			if _, ok := c.Peek(id); ok != (i != victim) {
				t.Fatalf("after removing entry %d: entry %d resident = %v", victim, i, ok)
			}
		}
	}
}

func TestStatsZeroDivision(t *testing.T) {
	var s Stats
	if s.HitRatio() != 0 || s.CostSavingsRatio() != 0 || s.AvgFragmentation() != 0 {
		t.Fatal("zero-value stats must yield zero ratios, not NaN")
	}
}
