package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Config parameterizes a Cache.
type Config struct {
	// Capacity is the cache size in bytes. Use Unlimited for an infinite
	// cache.
	Capacity int64
	// K is the number of reference times kept per retrieved set (the K of
	// LRU-K and of the λ estimate). Vanilla LRU corresponds to K = 1.
	K int
	// Policy selects the replacement/admission algorithm.
	Policy PolicyKind
	// Evictor names the victim-search structure; ScanEvictor (the zero
	// value) is the only one.
	Evictor EvictorKind
	// MetadataOverhead is the space in bytes charged against Capacity for
	// every entry record, resident or retained. The paper's §2.4 retained-
	// information policy relies on retained records consuming cache space.
	//lint:ignore unreferenced the §2.4 charge on retained records; tests pin its accounting until serve gives it a value
	MetadataOverhead int64
	// DisableRetainedInfo turns off retained reference information even
	// for policies that normally keep it (ablation A2).
	DisableRetainedInfo bool
	// StrictTiers enables the literal Figure-1 LNC-R victim loop: all
	// sets with one recorded reference in profit order, then all with two,
	// and so on. By default entries compete on profit alone — the λ
	// smoothing floor already discounts unreliable young estimates, and
	// the strict tier loop inverts the paper's Figure 3 trend on TPC-D
	// (ablation A6; the numbers are in docs/POLICIES.md).
	//lint:ignore unreferenced ablation A6, the paper's literal Figure-1 loop, run by TestAblationStrictTiers
	StrictTiers bool
	// Deriver, if non-nil, is consulted on the miss path with requests
	// that carry a plan descriptor (Request.Plan): when a cached ancestor
	// subsumes the query and deriving beats remote execution, the
	// reference ends in a HitDerived outcome instead of a miss, and the
	// derived set runs admission at its residual cost. A Deriver that also
	// implements EventSink is attached to the event stream so it can track
	// cached content.
	Deriver Deriver
	// Admitter, if non-nil, replaces the policy's default admission
	// behavior: it is consulted whenever admitting a missed set would
	// require evictions (sets that fit in free space are always admitted,
	// per Figure 1). Nil selects the policy default — the LNC-A profit
	// test for LNCRA, admit-always for every other policy. The adaptive
	// admission tuner plugs in here.
	Admitter Admitter
	// Sink, if non-nil, receives one typed Event per lifecycle outcome
	// (hit, admitted/rejected miss, eviction, invalidation, external
	// miss). Sinks run under the cache's execution context and must not
	// call back into the cache. The telemetry registry and the
	// buffer-manager hint pipeline plug in here.
	Sink EventSink
	// Tracer, if non-nil, receives one flight-recorder Span per reference,
	// carrying per-stage monotonic timings and the admission decision's
	// inputs. Like Sink, it runs under the cache's execution context and
	// must not call back into the cache. Nil disables span capture with no
	// hot-path cost beyond a nil check.
	Tracer SpanSink
}

// Unlimited is a Capacity value denoting an effectively infinite cache.
const Unlimited = math.MaxInt64

// Retained-information pruning (§2.4).
const (
	// pruneEvery is the pruning period in misses.
	pruneEvery = 64
	// retainedTimeout is the retention period in logical seconds for the
	// policies that prune retained information by age (LRU-K, after the
	// Five Minute Rule discussion in §2.4). LNC-R/LNC-RA prune by the
	// paper's profit rule instead.
	retainedTimeout = 300
)

// Stats are the cache's cumulative counters. The ratios defined on it are
// the paper's three performance metrics (§4.1).
type Stats struct {
	References      int64   `json:"references"`       // total Reference calls
	Hits            int64   `json:"hits"`             // references satisfied exactly from cache
	DerivedHits     int64   `json:"derived_hits"`     // references answered by semantic derivation
	CostTotal       float64 `json:"cost_total"`       // Σ cᵢ over all references
	CostSaved       float64 `json:"cost_saved"`       // Σ cᵢ over hits + residual savings of derived hits
	DeriveCost      float64 `json:"derive_cost"`      // Σ derivation cost spent on derived hits
	BytesServed     int64   `json:"bytes_served"`     // Σ sᵢ over hits
	Admissions      int64   `json:"admissions"`       // retrieved sets cached
	Rejections      int64   `json:"rejections"`       // admissions denied by LNC-A
	Evictions       int64   `json:"evictions"`        // retrieved sets evicted for space
	Invalidations   int64   `json:"invalidations"`    // entries dropped by coherence events
	ExternalMisses  int64   `json:"external_misses"`  // references charged via Account(req, false)
	RetainedDropped int64   `json:"retained_dropped"` // retained records pruned
	FragSamples     int64   `json:"frag_samples"`     // fragmentation samples taken
	FragSum         float64 `json:"frag_sum"`         // Σ unused-fraction samples
}

// HitRatio returns hits (exact plus derived) divided by references (paper
// metric HR; derived hits are served from cache content, so they count).
func (s Stats) HitRatio() float64 {
	if s.References == 0 {
		return 0
	}
	return float64(s.Hits+s.DerivedHits) / float64(s.References)
}

// CostSavingsRatio returns the cost savings ratio (paper metric CSR):
// Σ cᵢhᵢ / Σ cᵢrᵢ.
func (s Stats) CostSavingsRatio() float64 {
	if s.CostTotal == 0 {
		return 0
	}
	return s.CostSaved / s.CostTotal
}

// Add accumulates another Stats into s, field by field. Aggregators (the
// sharded front, multi-cache reports) use it so that counters added to
// this struct later cannot be silently dropped from their sums.
func (s *Stats) Add(o Stats) {
	s.References += o.References
	s.Hits += o.Hits
	s.DerivedHits += o.DerivedHits
	s.CostTotal += o.CostTotal
	s.CostSaved += o.CostSaved
	s.DeriveCost += o.DeriveCost
	s.BytesServed += o.BytesServed
	s.Admissions += o.Admissions
	s.Rejections += o.Rejections
	s.Evictions += o.Evictions
	s.Invalidations += o.Invalidations
	s.ExternalMisses += o.ExternalMisses
	s.RetainedDropped += o.RetainedDropped
	s.FragSamples += o.FragSamples
	s.FragSum += o.FragSum
}

// Sub subtracts another Stats from s, field by field — the inverse of
// Add. The restart experiments use it to isolate the counters accrued
// over one segment of a replay (end minus checkpoint).
func (s *Stats) Sub(o Stats) {
	s.References -= o.References
	s.Hits -= o.Hits
	s.DerivedHits -= o.DerivedHits
	s.CostTotal -= o.CostTotal
	s.CostSaved -= o.CostSaved
	s.DeriveCost -= o.DeriveCost
	s.BytesServed -= o.BytesServed
	s.Admissions -= o.Admissions
	s.Rejections -= o.Rejections
	s.Evictions -= o.Evictions
	s.Invalidations -= o.Invalidations
	s.ExternalMisses -= o.ExternalMisses
	s.RetainedDropped -= o.RetainedDropped
	s.FragSamples -= o.FragSamples
	s.FragSum -= o.FragSum
}

// AvgFragmentation returns the average fraction of unused cache space
// (paper's tertiary metric, §4.1).
func (s Stats) AvgFragmentation() float64 {
	if s.FragSamples == 0 {
		return 0
	}
	return s.FragSum / float64(s.FragSamples)
}

// AvgUtilization returns 1 − AvgFragmentation.
func (s Stats) AvgUtilization() float64 { return 1 - s.AvgFragmentation() }

// Request describes one query submission presented to the cache.
type Request struct {
	// QueryID is the raw query string or ID; it is compressed with
	// CompressID before lookup.
	QueryID string
	// Time is the submission time in logical seconds. Times must be
	// non-decreasing across calls.
	Time float64
	// Class is the workload class of the submission (the multiclass
	// extension of §6). Single-class workloads use class 0. It keys the
	// telemetry registry's per-class accounting.
	Class int
	// Size is the retrieved set size in bytes (> 0).
	Size int64
	// Cost is the execution cost in logical block reads (≥ 0).
	Cost float64
	// Relations lists base relations for coherence invalidation.
	Relations []string
	// Payload optionally carries the materialized retrieved set.
	Payload any
	// Plan optionally carries the query's plan descriptor (opaque to the
	// cache; the derivation subsystem reads it). It is stored on the
	// admitted entry so cached content stays matchable.
	Plan any
	// ExecNanos optionally attributes wall nanoseconds spent executing the
	// query outside the cache (the concurrent front times its loader calls
	// outside the shard lock) to the reference's flight-recorder span. Zero when untimed or untraced; it
	// has no effect on caching decisions.
	ExecNanos int64
}

// Cache is the WATCHMAN cache manager.
type Cache struct {
	cfg      Config
	index    map[uint64]*Entry // signature → head of its Entry.sigNext chain
	ev       evictor
	admitter Admitter // nil = no admission control (admit always)
	deriver  Deriver  // nil = exact-match lookups only
	sinks    []EventSink
	retained map[*Entry]struct{}
	rc       *rateContext

	// tracer receives completed reference spans; nil disables tracing.
	// span is the per-reference scratch record — execution through the
	// cache is serialized (single-threaded or under the shard mutex), so
	// one scratch span keeps the traced hot path allocation-free. theta
	// reads the admitter's current threshold for decision records; nil
	// when the admitter reports none.
	tracer   SpanSink
	span     Span
	spanMark int64
	theta    func() float64

	usedPayload int64
	resident    int
	now         float64
	firstTime   float64
	haveFirst   bool

	missesSincePrune int
	stats            Stats
}

// New creates a cache. It returns an error for nonsensical configurations.
func New(cfg Config) (*Cache, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("core: non-positive capacity %d", cfg.Capacity)
	}
	if cfg.K <= 0 {
		cfg.K = 1
	}
	if cfg.MetadataOverhead < 0 {
		return nil, fmt.Errorf("core: negative metadata overhead %d", cfg.MetadataOverhead)
	}
	if cfg.Evictor != ScanEvictor {
		return nil, fmt.Errorf("core: unknown evictor kind %d", cfg.Evictor)
	}
	admitter := cfg.Admitter
	if admitter == nil && cfg.Policy.HasAdmission() {
		admitter = LNCA()
	}
	var sinks []EventSink
	if cfg.Sink != nil {
		sinks = append(sinks, cfg.Sink)
	}
	if ds, ok := cfg.Deriver.(EventSink); ok {
		// The deriver tracks cached content off the same event stream
		// every other accountant observes.
		sinks = append(sinks, ds)
	}
	var theta func() float64
	if tr, ok := admitter.(ThresholdReporter); ok {
		theta = tr.Threshold
	}
	rc := &rateContext{}
	return &Cache{
		cfg:      cfg,
		index:    make(map[uint64]*Entry),
		ev:       newEvictor(ranker{policy: cfg.Policy, strictTiers: cfg.StrictTiers, rc: rc}),
		admitter: admitter,
		deriver:  cfg.Deriver,
		sinks:    sinks,
		retained: make(map[*Entry]struct{}),
		rc:       rc,
		tracer:   cfg.Tracer,
		theta:    theta,
	}, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the cumulative counters.
func (c *Cache) Stats() Stats { return c.stats }

// Clock returns the cache's logical time (the latest Request.Time seen).
func (c *Cache) Clock() float64 { return c.now }

// Resident returns the number of cached retrieved sets.
func (c *Cache) Resident() int { return c.resident }

// Retained returns the number of retained-information-only records.
func (c *Cache) Retained() int { return len(c.retained) }

// UsedBytes returns payload plus metadata bytes charged against capacity.
func (c *Cache) UsedBytes() int64 { return c.usedPayload + c.metaBytes() }

// FreeBytes returns the uncommitted capacity.
func (c *Cache) FreeBytes() int64 { return c.cfg.Capacity - c.UsedBytes() }

func (c *Cache) metaBytes() int64 {
	return c.cfg.MetadataOverhead * int64(c.resident+len(c.retained))
}

func (c *Cache) retainsInfo() bool {
	return c.cfg.Policy.RetainsRefInfo() && !c.cfg.DisableRetainedInfo
}

// lookup finds the entry for a compressed ID via the signature index.
func (c *Cache) lookup(id string, sig uint64) *Entry { return probe(c, id, sig) }

// probe is the index probe behind every lookup: id is the canonical query
// ID either as the bytes Canonical just produced into the caller's buffer
// or as a string some caller already holds (an Entry.ID, a tuner sample, a
// snapshot record). Comparing against bytes never materializes a string.
//
//watchman:hotpath
func probe[ID string | []byte](c *Cache, id ID, sig uint64) *Entry {
	for e := c.index[sig]; e != nil; e = e.sigNext {
		if e.ID == string(id) {
			return e
		}
	}
	return nil
}

// indexInsert pushes e onto the head of its signature's chain.
func (c *Cache) indexInsert(e *Entry) {
	e.sigNext = c.index[e.Sig]
	c.index[e.Sig] = e
}

// indexRemove unlinks e from its signature's chain.
func (c *Cache) indexRemove(e *Entry) {
	switch head := c.index[e.Sig]; {
	case head == e && e.sigNext == nil:
		delete(c.index, e.Sig)
	case head == e:
		c.index[e.Sig] = e.sigNext
	default:
		for p := head; p != nil; p = p.sigNext {
			if p.sigNext == e {
				p.sigNext = e.sigNext
				break
			}
		}
	}
	e.sigNext = nil
}

// Peek reports whether the query's retrieved set is resident, without
// touching reference statistics.
func (c *Cache) Peek(queryID string) (payload any, ok bool) {
	e, ok := c.Lookup(queryID)
	if !ok {
		return nil, false
	}
	return e.Payload, true
}

// Lookup returns the resident entry for the query, if any, without
// recording a reference. Concurrent wrappers use it to learn the stored
// Size and Cost of a set before charging a hit against it.
func (c *Cache) Lookup(queryID string) (*Entry, bool) {
	var buf [256]byte
	id, sig := Canonical(buf[:0], queryID)
	return c.LookupBytes(id, sig)
}

// LookupBytes is Lookup for callers that hold Canonical's output. id is
// only read during the call; the returned entry's ID is the canonical
// string.
func (c *Cache) LookupBytes(id []byte, sig uint64) (*Entry, bool) {
	return resident(probe(c, id, sig))
}

// resident filters a probe result down to cached retrieved sets; retained
// reference records are not lookups' business.
func resident(e *Entry) (*Entry, bool) {
	if e == nil || !e.resident {
		return nil, false
	}
	return e, true
}

// Reference processes one query submission: on a hit it returns the cached
// payload; on a miss it runs the policy's admission/replacement logic and
// returns hit = false. The caller is expected to have executed (or to now
// execute) the query on a miss; Request.Cost is charged either way for the
// cost-savings accounting.
//
//watchman:accounted
func (c *Cache) Reference(req Request) (hit bool, payload any) {
	var buf [256]byte
	id, sig := Canonical(buf[:0], req.QueryID)
	return c.ReferenceBytes(req, id, sig)
}

// ReferenceBytes is Reference for callers that hold Canonical's output:
// the sharded front canonicalizes and hashes once, into a buffer on its
// stack, to route the request, and the serialized path under the shard
// lock probes the index with those bytes. id is only read during the call
// and never retained: past the probe the set is named by the entry's own
// ID when the probe found a record (a hit, or a miss on a retained one); a
// first-sight miss materializes it — reusing req.QueryID when that was
// already canonical — which is the only point on the reference path where
// the ID reaches the heap.
//
//watchman:accounted
func (c *Cache) ReferenceBytes(req Request, id []byte, sig uint64) (hit bool, payload any) {
	now := c.begin(&req)
	e := probe(c, id, sig)
	c.spanStage(StageLookup)
	if e != nil {
		req.QueryID = e.ID
	} else {
		req.QueryID = CanonicalString(id, req.QueryID)
	}
	return c.resolve(e, &req, sig, now, true)
}

// ReferenceCanonical is Reference for callers that already hold the
// compressed query ID and its signature as a string — the tuner's shadows
// and the what-if ghosts replay IDs taken from the live cache's events.
// req.QueryID must be a CompressID result and sig its Signature.
//
//watchman:accounted
func (c *Cache) ReferenceCanonical(req Request, sig uint64) (hit bool, payload any) {
	return c.reference(req, sig, true)
}

// ReferenceExecuted is ReferenceCanonical minus the derivation stage: the
// caller has already executed the query remotely (the concurrent Load
// path commits loader results through it), so answering the reference by
// derivation would claim savings that were never realized.
//
//watchman:accounted
func (c *Cache) ReferenceExecuted(req Request, sig uint64) (hit bool, payload any) {
	return c.reference(req, sig, false)
}

// reference is the lookup stage for a request whose QueryID is already the
// canonical string; ReferenceBytes is its counterpart for canonical bytes.
//
//watchman:accounted
func (c *Cache) reference(req Request, sig uint64, allowDerive bool) (hit bool, payload any) {
	now := c.begin(&req)
	e := c.lookup(req.QueryID, sig)
	c.spanStage(StageLookup)
	return c.resolve(e, &req, sig, now, allowDerive)
}

// begin opens a reference: it advances the clock, charges the reference
// into the denominators and starts the span. The span is named by resolve,
// once the lookup stage has the canonical ID as a string.
func (c *Cache) begin(req *Request) (now float64) {
	now = c.tick(req.Time, req.Cost)
	c.spanBegin("", req.Class, req.Size, req.Cost, now)
	c.spanCharge(StageLoad, req.ExecNanos)
	return now
}

// ReferenceEntry charges a hit against a resident entry previously
// returned by Lookup/LookupBytes, using the entry's stored size and
// cost but the referencing request's class (matching Reference, which
// attributes hits to the submitting class, not the admitting one). It is
// the single-lookup hit path for concurrent front-ends: the caller has
// already located the entry, so no second index probe runs.
//
//watchman:accounted
func (c *Cache) ReferenceEntry(e *Entry, t float64, class int) (payload any) {
	now := c.tick(t, e.Cost)
	c.spanBegin(e.ID, class, e.Size, e.Cost, now)
	c.spanStage(StageLookup) // the caller's probe located the entry
	c.chargeHit(e, e.Cost, class, now)
	c.spanEntry(e, now)
	c.spanFinish(EventHit)
	return e.Payload
}

// Account charges one reference into Stats without running the lookup or
// admission stages of the lifecycle. hit reports how the reference was
// served: true charges a cache hit resolved elsewhere (cost saved, bytes
// served); false charges an external miss — a reference that consulted
// the cache but whose outcome never reached the miss lifecycle, such as a
// stale singleflight result or a failed loader execution — counted in
// Stats.ExternalMisses so the CSR and hit-ratio denominators stay honest
// under invalidation churn. Request.Time obeys the usual clock contract;
// Size and Cost may be zero when unknown (a failed execution).
func (c *Cache) Account(req Request, hit bool) {
	now := c.tick(req.Time, req.Cost)
	c.spanBegin(req.QueryID, req.Class, req.Size, req.Cost, now)
	c.spanCharge(StageLoad, req.ExecNanos)
	kind := EventExternalMiss
	if hit {
		c.stats.Hits++
		c.stats.CostSaved += req.Cost
		c.stats.BytesServed += req.Size
		kind = EventHit
	} else {
		c.stats.ExternalMisses++
	}
	if c.hasSinks() {
		c.emit(Event{Kind: kind, Time: now, Class: req.Class, ID: req.QueryID,
			Size: req.Size, Cost: req.Cost, Relations: req.Relations})
	}
	c.spanFinish(kind)
	c.sampleFragmentation()
}

// tick advances the logical clock and the per-reference counters shared by
// the hit and miss paths, returning the effective (clamped) time.
func (c *Cache) tick(t, cost float64) float64 {
	if t > c.now {
		c.now = t
	}
	now := c.now
	c.stats.References++
	c.stats.CostTotal += cost
	// Track the mean inter-arrival gap of references; it floors the λ
	// denominators (see refWindow.rate).
	if !c.haveFirst {
		c.firstTime, c.haveFirst = now, true
	} else if n := c.stats.References - 1; n > 0 && now > c.firstTime {
		c.rc.minDt = (now - c.firstTime) / float64(n)
	}
	return now
}

// chargeHit is the account stage of the hit path: it records the
// reference, touches the evictor, accrues the cost-savings counters and
// emits the Hit event.
//
//watchman:accounting
//watchman:hotpath
func (c *Cache) chargeHit(e *Entry, cost float64, class int, now float64) {
	e.window.record(now)
	c.ev.touch(e, now)
	c.stats.Hits++
	c.stats.CostSaved += cost
	c.stats.BytesServed += e.Size
	if c.hasSinks() {
		c.emit(Event{Kind: EventHit, Time: now, Class: class, ID: e.ID,
			Size: e.Size, Cost: cost, Relations: e.Relations, Entry: e})
	}
	c.sampleFragmentation()
}

// resolve drives the lifecycle of one submission past the lookup stage,
// which found e (nil when the index holds no record): the account stage
// charges the hit, or on a miss the derivation stage may answer from a
// cached ancestor before the admit and insert/evict stages run via miss.
// req.QueryID is the canonical ID by now — events, spans, the deriver and
// a new Entry all name the set by it.
//
//watchman:accounting
func (c *Cache) resolve(e *Entry, req *Request, sig uint64, now float64, allowDerive bool) (hit bool, payload any) {
	id := req.QueryID
	c.spanID(id)

	if e != nil && e.resident {
		// Account stage, hit outcome.
		c.chargeHit(e, req.Cost, req.Class, now)
		c.spanEntry(e, now)
		c.spanFinish(EventHit)
		return true, e.Payload
	}

	// Derivation stage: before running the miss lifecycle, a configured
	// deriver may answer the query from a cached ancestor. Only requests
	// with a known remote cost and no materialized result in hand qualify
	// — the comparison needs a basis, and a request that already carries
	// its payload has nothing left to save.
	if allowDerive && c.deriver != nil && req.Plan != nil && req.Payload == nil && req.Cost > 0 {
		d, ok := c.deriver.Derive(*req)
		c.spanStage(StageDerive)
		if ok && d.Cost < req.Cost {
			payload = c.deriveHit(e, id, sig, *req, d, now)
			c.spanFinish(EventHitDerived)
			return true, payload
		}
	}

	// Miss path (Figure 1 of the paper).
	c.missesSincePrune++
	c.miss(e, id, sig, *req, now, false)
	c.spanSubmit()
	if c.missesSincePrune >= pruneEvery {
		c.pruneRetained(now)
		c.missesSincePrune = 0
	}
	c.enforceRetainedBudget(now)
	c.sampleFragmentation()
	return false, nil
}

// enforceRetainedBudget drops lowest-profit retained records whenever their
// metadata charge pushes the cache over capacity. Admission accounting
// guarantees resident entries never overflow; only retained-record growth
// between pruning passes can, and §2.4's self-scaling argument says exactly
// that retained information must yield to cache pressure.
func (c *Cache) enforceRetainedBudget(now float64) {
	if c.cfg.MetadataOverhead == 0 || c.cfg.Capacity == Unlimited {
		return
	}
	for c.UsedBytes() > c.cfg.Capacity && len(c.retained) > 0 {
		var worst *Entry
		worstP := math.Inf(1)
		for e := range c.retained {
			if p := e.Profit(now); p < worstP || (p == worstP && (worst == nil || e.ID < worst.ID)) {
				worstP, worst = p, e
			}
		}
		delete(c.retained, worst)
		c.indexRemove(worst)
		c.stats.RetainedDropped++
	}
}

// miss drives the miss half of the lifecycle, decomposed into the named
// stages of the LNC-RA pseudo-code: the account stage records reference
// information, the admit stage selects victims and rules on admission, and
// the insert/evict stage commits the decision. derived marks the admission
// of a derived set (reached via deriveHit, not a reference outcome of its
// own); its events carry Event.Derived so accountants skip them.
//
//watchman:accounting
func (c *Cache) miss(e *Entry, id string, sig uint64, req Request, now float64, derived bool) {
	needBytes := req.Size + c.cfg.MetadataOverhead
	if needBytes > c.cfg.Capacity {
		// The set can never fit; at most remember its reference.
		c.noteRejected(e, id, sig, req, now, derived)
		return
	}

	e, hadHistory := c.accountMiss(e, id, sig, req, now)
	victims, dec, admitted := c.admit(e, hadHistory, req, now, derived)
	c.spanEntry(e, now)
	c.spanStage(StageAdmit)
	if !admitted {
		return
	}
	c.commit(e, victims, req, now, derived, dec)
}

// accountMiss is the account stage of the miss path: it updates (or
// allocates) the entry's reference information first, as in Figure 1, so
// the profit comparisons of the admit stage see the current reference. It
// returns the entry and whether it had reference history before this call.
func (c *Cache) accountMiss(e *Entry, id string, sig uint64, req Request, now float64) (*Entry, bool) {
	hadHistory := e != nil && e.window.count() > 0
	if e == nil {
		e = &Entry{ID: id, Sig: sig, Size: req.Size, Cost: req.Cost, Class: req.Class, Relations: req.Relations, rc: c.rc}
		e.window = newRefWindow(c.cfg.K)
	}
	e.window.record(now)
	return e, hadHistory
}

// admitOutcome summarizes what the admit stage decided and on what
// grounds, for the decision payloads of events and spans. decided is true
// only when an Admitter ruled on a profit comparison; free-space
// admissions and can-never-fit rejections leave it false.
type admitOutcome struct {
	profit, bar, theta float64
	hasHistory         bool
	decided            bool
}

// admitTheta reads the admitter's current threshold θ, or 0 when the
// admitter does not report one.
func (c *Cache) admitTheta() float64 {
	if c.theta == nil {
		return 0
	}
	return c.theta()
}

// admit is the admit stage: when free space suffices the set is admitted
// outright (Figure 1); otherwise replacement selection produces the victim
// list and the configured Admitter rules on the §2.2 profit comparison.
// Denials are recorded (with the failed comparison on the event) and
// return admitted = false.
func (c *Cache) admit(e *Entry, hadHistory bool, req Request, now float64, derived bool) (victims []*Entry, dec admitOutcome, admitted bool) {
	free := c.cfg.Capacity - c.usedPayload - c.metaBytes()
	extraMeta := c.cfg.MetadataOverhead
	if _, isRetained := c.retained[e]; isRetained {
		extraMeta = 0 // its record is already charged
	}
	if free >= req.Size+extraMeta {
		return nil, dec, true
	}

	victims = c.ev.candidates(req.Size+extraMeta-free, now)
	if victims == nil {
		// Cannot free enough space (pathological capacity); reject.
		c.noteRejectedEntry(e, req, now, nil, dec, derived)
		return nil, dec, false
	}
	if c.admitter != nil {
		var incoming, bar float64
		if hadHistory {
			incoming, bar = e.Profit(now), profitOf(victims, now)
		} else {
			incoming, bar = e.EProfit(), eprofitOf(victims)
		}
		dec = admitOutcome{profit: incoming, bar: bar, theta: c.admitTheta(),
			hasHistory: hadHistory, decided: true}
		if !c.admitter.Admit(AdmissionDecision{
			Entry:      e,
			Victims:    victims,
			Now:        now,
			HasHistory: hadHistory,
			Profit:     incoming,
			Bar:        bar,
		}) {
			c.noteRejectedEntry(e, req, now, victims, dec, derived)
			return nil, dec, false
		}
	}
	return victims, dec, true
}

// commit is the insert/evict stage: evict the victims, make the entry
// resident and emit the MissAdmitted event, carrying the admit stage's
// comparison (dec) so decision accountants see what the gate evaluated.
func (c *Cache) commit(e *Entry, victims []*Entry, req Request, now float64, derived bool, dec admitOutcome) {
	for i, v := range victims {
		c.evict(v, now, i)
	}
	c.spanStage(StageEvict)
	c.insert(e, req)
	c.spanStage(StageInsert)
	c.stats.Admissions++
	if c.hasSinks() {
		c.emit(Event{Kind: EventMissAdmitted, Time: now, Class: e.Class, ID: e.ID,
			Size: e.Size, Cost: e.Cost, Relations: e.Relations, Entry: e, Derived: derived,
			Victims: victims, Profit: dec.profit, Bar: dec.bar, Theta: dec.theta,
			HasHistory: dec.hasHistory, Decided: dec.decided})
	}
	c.spanDecision(EventMissAdmitted, dec, len(victims))
}

// noteRejected handles rejections where the entry may not exist yet.
func (c *Cache) noteRejected(e *Entry, id string, sig uint64, req Request, now float64, derived bool) {
	if e == nil {
		if !c.retainsInfo() {
			c.stats.Rejections++
			if c.hasSinks() {
				c.emit(Event{Kind: EventMissRejected, Time: now, Class: req.Class, ID: id,
					Size: req.Size, Cost: req.Cost, Relations: req.Relations, Derived: derived})
			}
			c.spanDecision(EventMissRejected, admitOutcome{}, 0)
			return
		}
		e = &Entry{ID: id, Sig: sig, Size: req.Size, Cost: req.Cost, Class: req.Class, Relations: req.Relations, rc: c.rc}
		e.window = newRefWindow(c.cfg.K)
		c.indexInsert(e)
		c.retained[e] = struct{}{}
	}
	e.window.record(now)
	c.noteRejectedEntry(e, req, now, nil, admitOutcome{}, derived)
}

// noteRejectedEntry records a rejection for an entry whose reference window
// is already up to date, emitting the MissRejected event (victims, profit,
// bar and theta carry the failed admission comparison when an Admitter
// denied the set — Decided is true; victims is nil and Decided false
// otherwise). The entry's reference information is retained (§2.4: "a
// retrieved set that is initially rejected from cache may be admitted
// after sufficient reference information is collected"), unless the policy
// does not keep retained info, in which case an entry not in any structure
// is dropped.
func (c *Cache) noteRejectedEntry(e *Entry, req Request, now float64, victims []*Entry, dec admitOutcome, derived bool) {
	c.stats.Rejections++
	if c.hasSinks() {
		c.emit(Event{Kind: EventMissRejected, Time: now, Class: req.Class, ID: e.ID,
			Size: req.Size, Cost: req.Cost, Relations: req.Relations, Entry: e,
			Victims: victims, Profit: dec.profit, Bar: dec.bar, Theta: dec.theta,
			HasHistory: dec.hasHistory, Decided: dec.decided, Derived: derived})
	}
	c.spanDecision(EventMissRejected, dec, len(victims))
	if _, ok := c.retained[e]; ok {
		return
	}
	if !c.retainsInfo() {
		return
	}
	c.retained[e] = struct{}{}
	if c.lookup(e.ID, e.Sig) != e {
		c.indexInsert(e)
	}
}

// insert makes the entry resident.
func (c *Cache) insert(e *Entry, req Request) {
	if _, ok := c.retained[e]; ok {
		delete(c.retained, e)
	}
	if c.lookup(e.ID, e.Sig) != e {
		c.indexInsert(e)
	}
	e.Size = req.Size
	e.Cost = req.Cost
	e.Class = req.Class
	e.Relations = req.Relations
	e.Payload = req.Payload
	e.Plan = req.Plan
	e.resident = true
	c.usedPayload += e.Size
	c.resident++
	c.ev.add(e, c.now)
}

// evict removes a resident entry, retaining its reference information when
// the policy keeps it, and emits the Evict event. rank is the entry's
// position in the victim batch (0 = least profitable, evicted first); the
// event carries it together with the victim's profit at eviction time so
// decision accountants can audit the replacement ordering.
func (c *Cache) evict(e *Entry, now float64, rank int) {
	e.resident = false
	e.Payload = nil
	c.usedPayload -= e.Size
	c.resident--
	c.ev.remove(e)
	c.stats.Evictions++
	if c.retainsInfo() {
		c.retained[e] = struct{}{}
	} else {
		c.indexRemove(e)
	}
	if c.hasSinks() {
		c.emit(Event{Kind: EventEvict, Time: now, Class: e.Class, ID: e.ID,
			Size: e.Size, Cost: e.Cost, Relations: e.Relations, Entry: e,
			Profit: e.Profit(now), Rank: rank})
	}
}

// pruneRetained drops stale retained-information records. LNC-R/LNC-RA use
// the paper's §2.4 rule — drop a record when its profit falls below the
// least profit among all cached retrieved sets — which self-scales the
// retained footprint with cache pressure. LRU-K uses the timeout retention
// of the original LRU-K design (Five Minute Rule by default), which §2.4
// critiques; keeping both makes the contrast testable.
func (c *Cache) pruneRetained(now float64) {
	if len(c.retained) == 0 {
		return
	}
	if c.cfg.Policy == LRUK {
		for e := range c.retained {
			if now-e.LastRef() > retainedTimeout {
				delete(c.retained, e)
				c.indexRemove(e)
				c.stats.RetainedDropped++
			}
		}
		return
	}
	if c.resident == 0 {
		return
	}
	minProfit := c.ev.minProfit(now)
	for e := range c.retained {
		if e.Profit(now) < minProfit {
			delete(c.retained, e)
			c.indexRemove(e)
			c.stats.RetainedDropped++
		}
	}
}

// Invalidate drops every entry (resident or retained) whose query reads any
// of the given base relations, implementing the §3 coherence hook. It
// returns the number of resident sets dropped.
func (c *Cache) Invalidate(relations ...string) int {
	rels := make(map[string]bool, len(relations))
	for _, r := range relations {
		rels[r] = true
	}
	var victims []*Entry
	for _, head := range c.index {
		for e := head; e != nil; e = e.sigNext {
			if e.touchesAny(rels) {
				victims = append(victims, e)
			}
		}
	}
	// The index is a map: order the victims by ID so the events of one
	// call come out the same on every run.
	slices.SortFunc(victims, func(a, b *Entry) int { return strings.Compare(a.ID, b.ID) })
	dropped := 0
	for _, e := range victims {
		wasResident := e.resident
		if wasResident {
			e.resident = false
			e.Payload = nil
			c.usedPayload -= e.Size
			c.resident--
			c.ev.remove(e)
			dropped++
		}
		delete(c.retained, e)
		c.indexRemove(e)
		c.stats.Invalidations++
		if c.hasSinks() {
			c.emit(Event{Kind: EventInvalidate, Time: c.now, Class: e.Class, ID: e.ID,
				Size: e.Size, Cost: e.Cost, Relations: e.Relations, Entry: e, Resident: wasResident})
		}
	}
	return dropped
}

// sampleFragmentation records one external-fragmentation sample: the
// fraction of unused cache space right now.
func (c *Cache) sampleFragmentation() {
	if c.cfg.Capacity == Unlimited {
		return // meaningless for the infinite cache
	}
	free := float64(c.FreeBytes())
	if free < 0 {
		free = 0
	}
	c.stats.FragSamples++
	c.stats.FragSum += free / float64(c.cfg.Capacity)
}

// CheckInvariants verifies internal consistency and returns the first
// violation found. Property-based tests drive it after random workloads.
func (c *Cache) CheckInvariants() error {
	var payload int64
	resident := 0
	total := 0
	for sig, head := range c.index {
		for e := head; e != nil; e = e.sigNext {
			total++
			if e.Sig != sig {
				return fmt.Errorf("entry %q indexed under wrong signature", e.ID)
			}
			if Signature(e.ID) != e.Sig {
				return fmt.Errorf("entry %q has stale signature", e.ID)
			}
			if CompressID(e.ID) != e.ID {
				// With the signature check above this guards the bytes
				// front: an ID cut short at the buffer boundary no longer
				// hashes to its Sig, and one aliasing a caller's buffer
				// changes under the index once the buffer is reused.
				return fmt.Errorf("entry %q is indexed under a non-canonical ID", e.ID)
			}
			_, isRetained := c.retained[e]
			if e.resident == isRetained {
				return fmt.Errorf("entry %q resident=%v retained=%v", e.ID, e.resident, isRetained)
			}
			if e.resident {
				resident++
				payload += e.Size
			}
		}
	}
	if resident != c.resident {
		return fmt.Errorf("resident count %d, accounted %d", resident, c.resident)
	}
	if payload != c.usedPayload {
		return fmt.Errorf("payload bytes %d, accounted %d", payload, c.usedPayload)
	}
	if total != c.resident+len(c.retained) {
		return fmt.Errorf("index holds %d entries, want %d resident + %d retained",
			total, c.resident, len(c.retained))
	}
	if c.ev.count() != c.resident {
		return fmt.Errorf("evictor tracks %d entries, want %d", c.ev.count(), c.resident)
	}
	for _, e := range c.ev.residents() {
		if e.rc != c.rc {
			// The evictor ranks with the cache's λ floor, read once per
			// pass; an entry with its own context would rank differently.
			return fmt.Errorf("resident %q does not share the cache's rate context", e.ID)
		}
	}
	if err := c.ev.check(); err != nil {
		return err
	}
	if c.cfg.Capacity != Unlimited && c.UsedBytes() > c.cfg.Capacity {
		return fmt.Errorf("used %d exceeds capacity %d", c.UsedBytes(), c.cfg.Capacity)
	}
	return nil
}

// profitOf returns the aggregate profit of a candidate list (§2.2, eq. 5):
// Σ λⱼcⱼ / Σ sⱼ.
func profitOf(entries []*Entry, now float64) float64 {
	var num, den float64
	for _, e := range entries {
		num += e.Rate(now) * e.Cost
		den += float64(e.Size)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// eprofitOf returns the aggregate estimated profit (§2.2, eq. 8):
// Σ cⱼ / Σ sⱼ.
func eprofitOf(entries []*Entry) float64 {
	var num, den float64
	for _, e := range entries {
		num += e.Cost
		den += float64(e.Size)
	}
	if den == 0 {
		return 0
	}
	return num / den
}
