// Package telemetry is the aggregation half of the telemetry spine: a
// Registry consumes the typed lifecycle events every cache shard emits
// (see core.EventSink) and maintains per-class and per-relation
// cost-savings accounting, per-shard reference counts and a load-latency
// histogram. Aggregate counters are derived at snapshot time, so the hot
// path touches only the event's own class and relation cells.
//
// The hot path is allocation-free and keeps to lines its shard alone
// writes: every shard sink owns a private contention domain, one
// cache-line-sized block holding a mutex and dense tables of plain
// counters. Events within a shard are already serialized by the shard
// mutex, so the domain's lock is uncontended except while a scrape folds
// that one domain; an event costs one lock, one unlock and plain adds.
// First sightings of a class or relation grow the tables under the same
// lock. Snapshot locks one domain at a time and merges them.
//
// A Registry serves two consumers: Snapshot returns a plain value for
// JSON reporting and tests, and WritePrometheus renders the Prometheus
// text exposition format for scraping (see internal/server's
// GET /metrics).
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// atomicFloat accumulates a float64 with compare-and-swap on its bit
// pattern, so concurrent observers can add without a mutex.
type atomicFloat struct{ bits atomic.Uint64 }

// Add adds v to the accumulator.
//
//watchman:hotpath
func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Load returns the current value.
func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Store replaces the current value.
func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }

// refCell is one accumulation cell of the breakdown tables: the outcome
// counts and the two sides of the paper's CSR fraction, scoped to one
// class or one relation within one contention domain. Its domain's mutex
// guards it. Admitted misses are derived (refs − hits − rejected −
// external), keeping the hot path to the minimum number of adds. A hit
// writes only the first cache line; the padding makes the cell two whole
// lines, so a table's edges never share a line with another domain's.
type refCell struct {
	refs, hits             int64
	bytes                  int64
	costTotal, costSaved   float64
	derivedHits            int64
	deriveCost             float64
	missRejected           int64
	extMisses              int64
	evictions, invalidated int64
	_                      [5]int64
}

// charge accrues one event into the cell. deriveCost is meaningful only
// for HitDerived events (the cost actually spent re-deriving; the saving
// is cost − deriveCost).
//
//watchman:hotpath
func (c *refCell) charge(kind core.EventKind, size int64, cost, deriveCost float64) {
	switch kind {
	case core.EventHit:
		c.refs++
		c.hits++
		c.bytes += size
		c.costTotal += cost
		c.costSaved += cost
	case core.EventHitDerived:
		c.refs++
		c.derivedHits++
		c.bytes += size
		c.costTotal += cost
		c.costSaved += cost - deriveCost
		c.deriveCost += deriveCost
	case core.EventMissAdmitted:
		c.refs++
		c.costTotal += cost
	case core.EventMissRejected:
		c.refs++
		c.missRejected++
		c.costTotal += cost
	case core.EventExternalMiss:
		c.refs++
		c.extMisses++
		c.costTotal += cost
	case core.EventEvict:
		c.evictions++
	case core.EventInvalidate:
		c.invalidated++
	case core.EventRestore:
		// Snapshot restores re-announce residency, not a reference
		// outcome; restored Stats already carry the pre-crash history.
	}
}

// MaxTrackedClasses bounds the dense per-class table: class indices at or
// above it collapse into the top cell (and negatives into cell 0), so an
// absurd Request.Class cannot drive an unbounded allocation. Serving
// layers should reject out-of-range classes at the boundary; the clamp
// here is defense in depth for library callers.
const MaxTrackedClasses = 1024

// MaxTrackedRelations bounds the per-relation cells of one contention
// domain: once a domain tracks this many distinct relation names, further
// names collapse into the OverflowRelation cell, so an adversarial or
// buggy workload with ever-changing relation strings cannot grow the
// registry (or the /metrics exposition) without bound.
const MaxTrackedRelations = 1024

// OverflowRelation is the catch-all cell name that absorbs relations
// beyond MaxTrackedRelations.
const OverflowRelation = "_other"

// domain is one contention domain of counters. Every shard sink owns one;
// the registry's root domain serves direct Emit callers (single-threaded
// replays). mu guards every field and is a leaf lock: nothing outside
// this package runs while it is held. On 64-bit platforms the fields fill
// exactly one cache line, so the block needs no padding and a shard's
// lock word shares its line with no other heap object; TestDomainLayout
// pins the size.
type domain struct {
	mu      sync.Mutex
	classes []refCell        // by class index, grown on first sighting
	rels    []refCell        // by relIdx
	relIdx  map[string]int32 // relation name → its cell in rels
}

// emit consumes one lifecycle event into the domain's cells under one
// lock.
//
//watchman:hotpath
func (d *domain) emit(ev *core.Event) {
	if ev.Derived && (ev.Kind == core.EventMissAdmitted || ev.Kind == core.EventMissRejected) {
		// The admission decision for a derived set is bookkeeping, not a
		// reference outcome: the reference was already counted by its
		// HitDerived event. Counting both would double the denominator.
		return
	}
	c := min(max(ev.Class, 0), MaxTrackedClasses-1)
	d.mu.Lock()
	if c >= len(d.classes) {
		d.growClasses(c)
	}
	d.classes[c].charge(ev.Kind, ev.Size, ev.Cost, ev.DeriveCost)
	// Only references and coherence drops carry per-relation meaning;
	// evictions are a space decision, not a relation one.
	if ev.Kind != core.EventEvict {
		for _, rel := range ev.Relations {
			i, ok := d.relIdx[rel]
			if !ok {
				i = d.addRelation(rel)
			}
			d.rels[i].charge(ev.Kind, ev.Size, ev.Cost, ev.DeriveCost)
		}
	}
	d.mu.Unlock()
}

// growClasses extends the class table to hold index c. The caller holds
// mu.
func (d *domain) growClasses(c int) {
	d.classes = append(d.classes, make([]refCell, c+1-len(d.classes))...)
}

// addRelation returns the index of the cell for a relation name not yet
// tracked, adding the cell. Past MaxTrackedRelations distinct names, the
// overflow cell is returned instead. The caller holds mu, so the cap is
// exact.
func (d *domain) addRelation(name string) int32 {
	if len(d.relIdx) >= MaxTrackedRelations && name != OverflowRelation {
		if i, ok := d.relIdx[OverflowRelation]; ok {
			return i
		}
		name = OverflowRelation
	}
	if d.relIdx == nil {
		d.relIdx = make(map[string]int32)
	}
	i := int32(len(d.rels))
	d.rels = append(d.rels, refCell{})
	d.relIdx[name] = i
	return i
}

// fold adds the domain's cells into a snapshot's class table and
// relation map and returns the domain's references. It reads the domain
// under its lock, so one domain's counters form one consistent set.
func (d *domain) fold(s *Snapshot, rels map[string]*RelationSnapshot) (refs int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(s.Classes) < len(d.classes) {
		s.Classes = append(s.Classes, ClassSnapshot{Class: len(s.Classes)})
	}
	for i := range d.classes {
		s.Classes[i].add(&d.classes[i])
		refs += d.classes[i].refs
	}
	for name, i := range d.relIdx {
		rs := rels[name]
		if rs == nil {
			rs = &RelationSnapshot{Relation: name}
			rels[name] = rs
		}
		rs.add(&d.rels[i])
	}
	return refs
}

// Registry aggregates lifecycle events from every shard of a cache. All
// methods are safe for concurrent use; Emit is cheap enough for the hit
// path (one uncontended lock and plain adds on shard-local cache lines,
// no allocation).
type Registry struct {
	// root consumes events emitted directly on the registry (replays and
	// single-threaded caches use the registry itself as their sink).
	root domain

	// shards holds the per-shard domains, grown by ShardSink. Elements
	// are never replaced, so a prefix read under shardMu stays valid.
	shardMu sync.Mutex
	shards  []*domain

	loadLatency  Histogram
	loaderErrors atomic.Int64

	// stageLatency holds one histogram per flight-recorder lifecycle stage
	// (see core.Stage); the flight recorder feeds them from every span it
	// observes, sampled or not, so the stage profile covers all traffic.
	stageLatency [int(core.NumStages)]Histogram

	// Snapshot-capture accounting, fed by ObserveSnapshot: the capture
	// latency distribution plus the most recent capture's encoded size
	// and worst single shard-lock pause.
	snapLatency  Histogram
	snapBytes    atomic.Int64
	snapMaxPause atomicFloat
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{}
}

// Emit consumes one lifecycle event into the registry's root domain. It
// implements core.EventSink; concurrent caches should prefer per-shard
// sinks from ShardSink, which keep counter cache lines and the domain
// lock shard-local.
func (r *Registry) Emit(ev core.Event) { r.root.emit(&ev) }

// shardSink forwards one shard's events into its private domain.
type shardSink struct{ d *domain }

// Emit consumes the event into the shard's domain.
func (s shardSink) Emit(ev core.Event) { s.d.emit(&ev) }

// ShardSink returns a sink for one shard that fans its events into the
// registry through a private contention domain, so per-shard balance
// falls out of the merge and counters written under different shard
// mutexes never share cache lines. Shard indices should be dense from
// zero.
func (r *Registry) ShardSink(shard int) core.EventSink {
	if shard < 0 {
		shard = 0
	}
	r.shardMu.Lock()
	defer r.shardMu.Unlock()
	for len(r.shards) <= shard {
		r.shards = append(r.shards, &domain{})
	}
	return shardSink{d: r.shards[shard]}
}

// ObserveLoad records one loader execution: its wall-clock latency in
// seconds and whether it failed.
func (r *Registry) ObserveLoad(seconds float64, failed bool) {
	r.loadLatency.Observe(seconds)
	if failed {
		r.loaderErrors.Add(1)
	}
}

// ObserveStage records the wall-clock seconds one reference spent in one
// lifecycle stage. Out-of-range stages are dropped.
func (r *Registry) ObserveStage(stage core.Stage, seconds float64) {
	if stage >= core.NumStages {
		return
	}
	r.stageLatency[stage].Observe(seconds)
}

// ObserveSnapshot records one completed snapshot capture: its wall-clock
// duration and encoded size, and the longest single shard-lock pause the
// capture inflicted on foreground traffic.
func (r *Registry) ObserveSnapshot(seconds float64, bytes int64, maxPauseSeconds float64) {
	r.snapBytes.Store(bytes)
	r.snapMaxPause.Store(maxPauseSeconds)
	r.snapLatency.Observe(seconds)
}

// RefStats is the reference accounting of one class or relation in a
// Snapshot.
type RefStats struct {
	// References is the number of references charged to the key.
	References int64 `json:"references"`
	// Hits is the number of those references served exactly from cache.
	Hits int64 `json:"hits"`
	// DerivedHits is the number answered by semantic derivation from a
	// cached ancestor (partial savings: cost minus derivation cost).
	DerivedHits int64 `json:"derived_hits"`
	// DeriveCost is Σ derivation cost spent on the key's derived hits.
	DeriveCost float64 `json:"derive_cost"`
	// MissesRejected is the number of misses denied admission.
	MissesRejected int64 `json:"misses_rejected"`
	// ExternalMisses is the number charged via Account(req, false).
	ExternalMisses int64 `json:"external_misses"`
	// Evictions counts replacement evictions of the key's entries.
	Evictions int64 `json:"evictions"`
	// Invalidations counts coherence drops of the key's entries.
	Invalidations int64 `json:"invalidations"`
	// BytesServed is Σ size over the key's hits.
	BytesServed int64 `json:"bytes_served"`
	// CostTotal is Σ cost over the key's references.
	CostTotal float64 `json:"cost_total"`
	// CostSaved is Σ cost over the key's hits.
	CostSaved float64 `json:"cost_saved"`
}

// add accumulates one cell of one domain into the stats. The caller
// holds the domain's lock.
func (s *RefStats) add(c *refCell) {
	s.References += c.refs
	s.Hits += c.hits
	s.DerivedHits += c.derivedHits
	s.DeriveCost += c.deriveCost
	s.MissesRejected += c.missRejected
	s.ExternalMisses += c.extMisses
	s.Evictions += c.evictions
	s.Invalidations += c.invalidated
	s.BytesServed += c.bytes
	s.CostTotal += c.costTotal
	s.CostSaved += c.costSaved
}

// MissesAdmitted returns the number of misses whose set was cached: every
// reference ends in exactly one outcome, so it is the remainder.
func (s RefStats) MissesAdmitted() int64 {
	return s.References - s.Hits - s.DerivedHits - s.MissesRejected - s.ExternalMisses
}

// CSR returns the key's cost savings ratio.
func (s RefStats) CSR() float64 {
	if s.CostTotal == 0 {
		return 0
	}
	return s.CostSaved / s.CostTotal
}

// HitRatio returns the key's hit ratio (exact plus derived hits).
func (s RefStats) HitRatio() float64 {
	if s.References == 0 {
		return 0
	}
	return float64(s.Hits+s.DerivedHits) / float64(s.References)
}

// StageSnapshot is one lifecycle stage's latency histogram in a Snapshot.
type StageSnapshot struct {
	// Stage is the stage name ("lookup", "derive", "load", "admit",
	// "insert", "evict").
	Stage string `json:"stage"`
	// HistogramSnapshot is the stage's latency histogram.
	HistogramSnapshot
}

// ClassSnapshot is one workload class's accounting.
type ClassSnapshot struct {
	// Class is the workload class index.
	Class int `json:"class"`
	// RefStats is the class's reference accounting.
	RefStats
}

// RelationSnapshot is one base relation's accounting: references to
// queries reading the relation and coherence drops against it.
type RelationSnapshot struct {
	// Relation is the base relation name.
	Relation string `json:"relation"`
	// RefStats is the relation's reference accounting.
	RefStats
}

// Snapshot is a copy of every registry counter. Each contention domain
// is read under its lock as one consistent set, and domains are read one
// after another, so under write load every counter is monotone across
// snapshots and every derived count (MissesAdmitted) is non-negative.
type Snapshot struct {
	// Hits, DerivedHits, MissesAdmitted, MissesRejected and ExternalMisses
	// partition References by lifecycle outcome.
	Hits           int64 `json:"hits"`
	DerivedHits    int64 `json:"derived_hits"`
	MissesAdmitted int64 `json:"misses_admitted"`
	MissesRejected int64 `json:"misses_rejected"`
	ExternalMisses int64 `json:"external_misses"`
	// Evictions and Invalidations count entry departures.
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	// BytesServed is Σ size over hits.
	BytesServed int64 `json:"bytes_served"`
	// CostTotal and CostSaved are the two sides of the paper's CSR.
	CostTotal float64 `json:"cost_total"`
	CostSaved float64 `json:"cost_saved"`
	// DeriveCost is Σ derivation cost spent on derived hits.
	DeriveCost float64 `json:"derive_cost"`
	// LoaderErrors counts failed loader executions.
	LoaderErrors int64 `json:"loader_errors"`
	// LoadLatency is the loader execution latency histogram.
	LoadLatency HistogramSnapshot `json:"load_latency"`
	// Stages holds the per-stage latency histograms fed by the flight
	// recorder, in stage order; empty when no span was ever observed.
	Stages []StageSnapshot `json:"stages,omitempty"`
	// SnapshotLatency is the snapshot capture latency histogram, nil
	// until a snapshot has been observed (ObserveSnapshot).
	SnapshotLatency *HistogramSnapshot `json:"snapshot_latency,omitempty"`
	// SnapshotBytes is the encoded size of the most recent snapshot.
	SnapshotBytes int64 `json:"snapshot_bytes,omitempty"`
	// SnapshotMaxLockPauseSeconds is the longest single shard-lock pause
	// of the most recent snapshot capture.
	SnapshotMaxLockPauseSeconds float64 `json:"snapshot_max_lock_pause_seconds,omitempty"`
	// Classes holds the per-class breakdown, ascending by class.
	Classes []ClassSnapshot `json:"classes,omitempty"`
	// Relations holds the per-relation breakdown, ascending by name.
	Relations []RelationSnapshot `json:"relations,omitempty"`
	// ShardReferences counts references served per shard (one element per
	// shard sink handed out).
	ShardReferences []int64 `json:"shard_references,omitempty"`
}

// References returns the total references observed: every reference ends
// in exactly one of hit, derived hit, admitted miss, rejected miss or
// external miss.
func (s Snapshot) References() int64 {
	return s.Hits + s.DerivedHits + s.MissesAdmitted + s.MissesRejected + s.ExternalMisses
}

// CSR returns the aggregate cost savings ratio.
func (s Snapshot) CSR() float64 {
	if s.CostTotal == 0 {
		return 0
	}
	return s.CostSaved / s.CostTotal
}

// HitRatio returns the aggregate hit ratio (exact plus derived hits).
func (s Snapshot) HitRatio() float64 {
	if n := s.References(); n > 0 {
		return float64(s.Hits+s.DerivedHits) / float64(n)
	}
	return 0
}

// Snapshot merges every contention domain into one copy, locking one
// domain at a time.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		LoaderErrors: r.loaderErrors.Load(),
		LoadLatency:  r.loadLatency.Snapshot(),
	}

	// The stage histograms appear only once a flight recorder has fed
	// them: an untraced process keeps its snapshot (and exposition) free
	// of six empty histogram families.
	var stageCount int64
	stages := make([]StageSnapshot, int(core.NumStages))
	for st := core.Stage(0); st < core.NumStages; st++ {
		stages[st] = StageSnapshot{Stage: st.String(), HistogramSnapshot: r.stageLatency[st].Snapshot()}
		stageCount += stages[st].Count
	}
	if stageCount > 0 {
		s.Stages = stages
	}

	// Same gating for snapshot metrics: a process that never snapshots
	// keeps its exposition free of an empty histogram family.
	if hs := r.snapLatency.Snapshot(); hs.Count > 0 {
		s.SnapshotLatency = &hs
		s.SnapshotBytes = r.snapBytes.Load()
		s.SnapshotMaxLockPauseSeconds = r.snapMaxPause.Load()
	}

	// Fold the root, then the shards ascending: each class sums its cells
	// in that order, one domain lock at a time.
	rels := map[string]*RelationSnapshot{}
	r.root.fold(&s, rels)
	r.shardMu.Lock()
	shards := r.shards
	r.shardMu.Unlock()
	for _, d := range shards {
		s.ShardReferences = append(s.ShardReferences, d.fold(&s, rels))
	}
	for _, rs := range rels {
		s.Relations = append(s.Relations, *rs)
	}
	sort.Slice(s.Relations, func(i, j int) bool { return s.Relations[i].Relation < s.Relations[j].Relation })

	// Aggregates are the class-table sums (relations would double-count:
	// one query may read several relations).
	for _, c := range s.Classes {
		s.Hits += c.Hits
		s.DerivedHits += c.DerivedHits
		s.MissesAdmitted += c.MissesAdmitted()
		s.MissesRejected += c.MissesRejected
		s.ExternalMisses += c.ExternalMisses
		s.Evictions += c.Evictions
		s.Invalidations += c.Invalidations
		s.BytesServed += c.BytesServed
		s.CostTotal += c.CostTotal
		s.CostSaved += c.CostSaved
		s.DeriveCost += c.DeriveCost
	}
	return s
}
