// Package shard provides a concurrent, sharded front for the WATCHMAN
// cache. The single-threaded core.Cache is deliberately lock-free and
// deterministic; this package partitions total capacity across a
// power-of-two number of shards, each owning a mutex-guarded core.Cache,
// and routes every request by the same signature hash the core's lookup
// index uses (core.Signature of the compressed query ID). Because a query
// ID always hashes to the same shard, each shard observes a coherent
// sub-trace and the LNC-R/LNC-A profit accounting stays exact per shard.
//
// On top of the partitioning the package adds the two features a serving
// deployment needs that a trace replayer does not:
//
//   - singleflight miss coalescing: when a Loader is configured, N
//     concurrent Load calls for the same (not yet cached) query ID execute
//     the query once; the followers block on the leader's flight and then
//     charge an ordinary reference against the freshly admitted set.
//   - a wall-clock time source: core works in logical seconds from the
//     trace; WallClock adapts real time to that scale so live traffic and
//     replayed traces share one λ (reference-rate) estimator.
package shard

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/clock"
	"repro/internal/core"
	flightrec "repro/internal/flight" // aliased: this package's singleflight struct is also named flight
	"repro/internal/telemetry"
	"repro/internal/whatif"
)

// Request is one query submission; it aliases core.Request so callers of
// the concurrent layer need not import core.
type Request = core.Request

// Loader executes a query on behalf of the cache when a Load call misses.
// It returns the materialized retrieved set, its size in bytes and the
// execution cost in logical block reads — exactly the quantities a trace
// record carries. The loader runs outside all shard locks.
type Loader func(req core.Request) (payload any, size int64, cost float64, err error)

// DefaultShards is the shard count used when Config.Shards is zero.
const DefaultShards = 16

// Config parameterizes a Sharded cache.
type Config struct {
	// Shards is the number of partitions; it must be a power of two.
	// Zero selects DefaultShards.
	Shards int
	// Cache configures every shard's core.Cache. Capacity is the TOTAL
	// across all shards and is split evenly; the remainder bytes go to the
	// low-numbered shards. Its Sink is shared by every shard, invoked with
	// the owning shard's mutex held, and must not call back into the
	// Sharded cache.
	Cache core.Config
	// Loader, if non-nil, enables the Load path with singleflight miss
	// coalescing.
	Loader Loader
	// Deriver, if non-nil, enables semantic derivation: every shard's
	// cache consults it on the Reference miss path, and Load tries a
	// derivation inside the singleflight flight before running the Loader
	// — concurrent misses on the same query coalesce onto one derivation
	// exactly as they coalesce onto one loader execution. The same
	// Deriver instance is shared by all shards (it synchronizes
	// internally) and observes every shard's lifecycle events.
	Deriver core.Deriver
	// Registry, if non-nil, receives every cache lifecycle event: each
	// shard's core cache gets a per-shard sink fanning into this one
	// registry (composed with any Cache.Sink the caller configured), the
	// Load path's loader executions are timed into its latency histogram,
	// and the external-miss outcomes Load charges via Cache.Account are
	// counted. GET /metrics and the per-class /stats sections read it.
	Registry *telemetry.Registry
	// Tuner, if non-nil, enables adaptive admission: every shard's cache
	// is gated by the tuner's published threshold (overriding
	// Cache.Admitter) and fans its lifecycle events into the tuner, whose
	// feed worker (started here, stopped by Close) replays them through
	// the θ shadows and runs a tuning round whenever the window fills.
	// The hot-path threshold read is a single atomic load; shadow replays
	// run off the request path.
	Tuner *admission.Tuner
	// Recorder, if non-nil, enables the flight recorder: every shard's
	// cache gets a per-shard span tracer and decision sink writing into
	// the recorder's rings, and loader/derivation executions on the Load
	// path are timed so spans attribute their wall time. Nil keeps the
	// lifecycle untraced (zero overhead beyond a nil check per hook).
	Recorder *flightrec.Recorder
	// WhatIf, if non-nil, attaches the ghost-cache matrix: every shard's
	// lifecycle events fan into it (sampled references feed the
	// counterfactual grid), Invalidate forwards coherence to the ghosts
	// exactly as it does to the admission tuner's shadows, and Close
	// stops the matrix's feed worker, which New starts, after the queued
	// slice is applied. The
	// caller builds the matrix (whatif.New) from the same total-capacity
	// Config passed here.
	WhatIf *whatif.Matrix
	// Now supplies the logical-seconds timestamp for requests whose Time
	// is zero. Nil selects WallClock(), anchored at construction.
	Now func() float64
}

// Stats aggregates the core counters across shards and adds the
// concurrency layer's own counters.
type Stats struct {
	core.Stats
	// LoaderCalls is the number of times the Loader actually executed.
	LoaderCalls int64 `json:"loader_calls"`
	// Coalesced is the number of Load calls that were served by waiting on
	// another caller's in-flight execution of the same query.
	Coalesced int64 `json:"coalesced"`
	// Derivations is the number of singleflight flights answered by
	// semantic derivation instead of a loader execution. Followers that
	// waited on such a flight are counted in Coalesced as usual.
	Derivations int64 `json:"derivations"`
}

// flight is one in-progress loader execution that followers wait on.
type flight struct {
	wg      sync.WaitGroup
	payload any
	size    int64
	cost    float64
	err     error
	// stale is set when the query's base relations were invalidated while
	// the loader ran: the result may predate the update, so neither the
	// leader nor any follower admits it.
	stale bool
	// derivation is non-nil when the leader answered the flight by
	// semantic derivation instead of running the loader; size and cost
	// then carry the derived-set size and the remote-cost basis.
	derivation *core.Derivation
	// execNanos is the wall time the leader spent in the loader (or the
	// derivation attempt), measured outside the shard lock; the flight
	// recorder attributes it to the span's load/derive stage. Zero when
	// untimed.
	execNanos int64
	// epoch is the shard's invalidation epoch at the moment the leader
	// admitted the result; followers re-check their relations against it
	// under the lock so an invalidation landing after the admission cannot
	// be undone by a follower re-admitting the payload.
	epoch uint64
}

// shard is one partition: a mutex-guarded core cache plus the in-flight
// load table for singleflight coalescing.
type shard struct {
	mu       sync.Mutex
	cache    *core.Cache
	inflight map[string]*flight
	// epoch counts invalidations and invalEpoch records the epoch at which
	// each base relation was last invalidated; flights compare them across
	// their loader execution to detect a coherence event that actually
	// touches their query's relations.
	epoch      uint64
	invalEpoch map[string]uint64
	// clearedAt is the epoch at which invalEpoch was last pruned. Flights
	// older than it are conservatively treated as stale (their entries
	// may have been pruned), which keeps pruning safe: a false positive
	// only skips caching one result, never serves a stale one.
	clearedAt uint64
}

// staleSince reports whether any of the given relations was invalidated
// after the epoch snapshot. Must be called with mu held. A query that
// declares no relations has opted out of coherence and is never stale; a
// flight older than the last invalEpoch prune is conservatively stale.
func (sh *shard) staleSince(relations []string, epoch uint64) bool {
	if len(relations) == 0 {
		return false
	}
	if epoch < sh.clearedAt {
		return true
	}
	for _, r := range relations {
		if sh.invalEpoch[r] > epoch {
			return true
		}
	}
	return false
}

// Sharded is a concurrent cache partitioned over multiple core.Cache
// instances. All methods are safe for concurrent use.
type Sharded struct {
	shards  []*shard
	mask    uint64
	loader  Loader
	now     func() float64
	tuner   *admission.Tuner
	reg     *telemetry.Registry
	deriver core.Deriver
	rec     *flightrec.Recorder
	whatif  *whatif.Matrix

	loaderCalls atomic.Int64
	coalesced   atomic.Int64
	derivations atomic.Int64
}

// WallClock returns a time source that maps wall time to core's logical
// seconds: seconds elapsed since the call that created it.
func WallClock() func() float64 { return clock.Wall() }

// New creates a sharded cache. The configuration must name a power-of-two
// shard count and enough capacity for every shard to hold at least one
// byte of payload.
func New(cfg Config) (*Sharded, error) {
	n := cfg.Shards
	if n == 0 {
		n = DefaultShards
	}
	if n < 1 || bits.OnesCount(uint(n)) != 1 {
		return nil, fmt.Errorf("shard: shard count %d is not a power of two", n)
	}
	per, rem := cfg.Cache.Capacity/int64(n), cfg.Cache.Capacity%int64(n)
	if cfg.Cache.Capacity == core.Unlimited {
		per, rem = core.Unlimited, 0
	}
	if per <= 0 {
		return nil, fmt.Errorf("shard: capacity %d spread over %d shards leaves nothing per shard",
			cfg.Cache.Capacity, n)
	}
	s := &Sharded{
		shards:  make([]*shard, n),
		mask:    uint64(n - 1),
		loader:  cfg.Loader,
		now:     cfg.Now,
		tuner:   cfg.Tuner,
		reg:     cfg.Registry,
		deriver: cfg.Deriver,
		rec:     cfg.Recorder,
		whatif:  cfg.WhatIf,
	}
	if s.now == nil {
		s.now = WallClock()
	}
	for i := range s.shards {
		scfg := cfg.Cache
		scfg.Capacity = per
		if int64(i) < rem {
			scfg.Capacity++
		}
		if s.deriver != nil {
			// Every shard consults the shared deriver on its miss path;
			// core.New also wires it into the shard's event stream so the
			// candidate index sees all admissions and departures.
			scfg.Deriver = s.deriver
		}
		if s.tuner != nil {
			scfg.Admitter = s.tuner.Admitter()
			scfg.Sink = core.MultiSink(scfg.Sink, s.tuner)
		}
		if s.reg != nil {
			// Fan this shard's lifecycle events into the shared registry,
			// preserving any sink the caller installed.
			scfg.Sink = core.MultiSink(scfg.Sink, s.reg.ShardSink(i))
		}
		if s.rec != nil {
			// The flight recorder taps both hooks: spans via the tracer,
			// admission/eviction decision records via the event stream.
			scfg.Tracer = s.rec.ShardTracer(i)
			scfg.Sink = core.MultiSink(scfg.Sink, s.rec.ShardSink(i))
		}
		if s.whatif != nil {
			// All shards share one matrix: its Emit only samples, counts
			// and enqueues, so it is safe (and cheap) under any shard's
			// lock.
			scfg.Sink = core.MultiSink(scfg.Sink, s.whatif)
		}
		c, err := core.New(scfg)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		s.shards[i] = &shard{
			cache:      c,
			inflight:   make(map[string]*flight),
			invalEpoch: make(map[string]uint64),
		}
	}
	if s.tuner != nil {
		s.tuner.Start()
	}
	if s.whatif != nil {
		s.whatif.Start()
	}
	return s, nil
}

// NumShards returns the number of partitions.
func (s *Sharded) NumShards() int { return len(s.shards) }

// shardFor routes a signature to its shard.
func (s *Sharded) shardFor(sig uint64) *shard { return s.shards[sig&s.mask] }

// timestamp resolves a request time: zero means "now" per the time source.
func (s *Sharded) timestamp(t float64) float64 {
	if t == 0 {
		return s.now()
	}
	return t
}

// Reference processes one query submission exactly as core.Cache.Reference
// does — hit returns the cached payload, miss runs admission/replacement —
// under the owning shard's lock. A zero Request.Time is replaced by the
// configured time source.
//
//watchman:accounted
func (s *Sharded) Reference(req core.Request) (hit bool, payload any) {
	var buf [256]byte
	key, sig := core.Canonical(buf[:0], req.QueryID)
	req.Time = s.timestamp(req.Time)
	sh := s.shardFor(sig)
	sh.mu.Lock()
	hit, payload = sh.cache.ReferenceBytes(req, key, sig)
	sh.mu.Unlock()
	return hit, payload
}

// Tuner returns the adaptive admission tuner, or nil when the cache runs
// a static admission policy.
func (s *Sharded) Tuner() *admission.Tuner { return s.tuner }

// Deriver returns the semantic deriver the cache consults on misses, or
// nil when derivation is disabled.
func (s *Sharded) Deriver() core.Deriver { return s.deriver }

// Registry returns the telemetry registry the cache's lifecycle events
// fan into, or nil when none was configured.
func (s *Sharded) Registry() *telemetry.Registry { return s.reg }

// FlightRecorder returns the flight recorder capturing this cache's spans
// and decision records, or nil when tracing is disabled.
func (s *Sharded) FlightRecorder() *flightrec.Recorder { return s.rec }

// WhatIf returns the ghost-cache matrix fed by this cache's event stream,
// or nil when what-if observability is disabled.
func (s *Sharded) WhatIf() *whatif.Matrix { return s.whatif }

// accountExternal charges a Load outcome that never reached the core miss
// lifecycle — a stale singleflight result or a failed loader execution —
// into the owning shard's Stats as an external miss, so the CSR and
// hit-ratio denominators stay honest under invalidation churn (the
// reference consulted the cache; pretending it never happened would
// overstate savings).
//
//watchman:accounting
func (s *Sharded) accountExternal(sh *shard, req core.Request) {
	sh.mu.Lock()
	sh.cache.Account(req, false)
	sh.mu.Unlock()
}

// Load looks the query up and, on a miss, executes it through the
// configured Loader with singleflight coalescing: concurrent Load calls
// for the same query ID run the loader once and share its result. The
// request's Size and Cost are ignored (the loader supplies them); a zero
// Time is replaced by the time source.
//
//watchman:accounted
func (s *Sharded) Load(req core.Request) (payload any, hit bool, err error) {
	if s.loader == nil {
		// A misconfigured front never consulted the cache: nothing was
		// looked up, so there is no reference to charge.
		//lint:ignore accounthonesty config error precedes the lookup; the cache was never consulted
		return nil, false, fmt.Errorf("shard: no Loader configured")
	}
	var buf [256]byte
	key, sig := core.Canonical(buf[:0], req.QueryID)
	req.Time = s.timestamp(req.Time)
	sh := s.shardFor(sig)

	sh.mu.Lock()
	if e, ok := sh.cache.LookupBytes(key, sig); ok {
		// Resident: charge a hit against the entry we just found — no
		// second index probe inside the critical section.
		p := sh.cache.ReferenceEntry(e, req.Time, req.Class)
		sh.mu.Unlock()
		return p, true, nil
	}
	// Not resident: the singleflight table and every request built below
	// name the set by string, and the caller's buffer dies with this call.
	id := core.CanonicalString(key, req.QueryID)
	req.QueryID = id
	if f, ok := sh.inflight[id]; ok {
		// Another caller is executing this query right now: wait for its
		// result, then charge an ordinary reference (normally a hit, since
		// the leader just admitted the set).
		s.coalesced.Add(1)
		sh.mu.Unlock()
		f.wg.Wait()
		if f.err != nil {
			// The flight failed: the caller still referenced the cache, so
			// charge an external miss (cost unknown — the query never ran
			// to completion).
			s.accountExternal(sh, core.Request{QueryID: id, Time: req.Time, Class: req.Class, Relations: req.Relations})
			return nil, false, f.err
		}
		if f.stale {
			s.accountExternal(sh, core.Request{QueryID: id, Time: req.Time, Class: req.Class,
				Size: f.size, Cost: f.cost, Relations: req.Relations})
			return f.payload, false, nil
		}
		sh.mu.Lock()
		if sh.staleSince(req.Relations, f.epoch) {
			// An invalidation of this query's relations landed after the
			// leader's admission: the payload must not be re-admitted (and
			// admitting it without a payload would turn later Load hits
			// into nil results), so serve the caller without touching the
			// cache — but still charge the reference.
			sh.cache.Account(core.Request{QueryID: id, Time: req.Time, Class: req.Class,
				Size: f.size, Cost: f.cost, Relations: req.Relations}, false)
			sh.mu.Unlock()
			return f.payload, false, nil
		}
		refHit, p := sh.cache.ReferenceCanonical(core.Request{
			QueryID: id, Time: req.Time, Class: req.Class, Size: f.size, Cost: f.cost,
			Relations: req.Relations, Payload: f.payload, Plan: req.Plan,
		}, sig)
		sh.mu.Unlock()
		if refHit {
			return p, true, nil
		}
		return f.payload, false, nil
	}

	// Leader: publish the flight, then — unlocked — try answering by
	// derivation from cached content before paying for a loader
	// execution. Either way, feed the result through the admission path.
	// Followers waiting on the flight coalesce onto whichever happened.
	f := &flight{}
	f.wg.Add(1)
	sh.inflight[id] = f
	epoch := sh.epoch
	sh.mu.Unlock()

	if s.deriver != nil && req.Plan != nil {
		// Load's contract is "returns the data", so only materialized
		// derivations count here: a bookkeeping-only outcome (nil
		// payload) would hand the caller nothing and admit a payload-less
		// entry that turns every later Load hit into a nil result with
		// the loader bypassed. Those fall through to the loader.
		var start time.Time
		if s.rec != nil {
			start = clock.Now()
		}
		if d, ok := s.deriver.Derive(core.Request{QueryID: id, Class: req.Class,
			Relations: req.Relations, Plan: req.Plan}); ok && d.Payload != nil {
			f.payload, f.size, f.cost = d.Payload, d.Size, d.Remote
			f.derivation = &d
			s.derivations.Add(1)
		}
		if s.rec != nil {
			f.execNanos = int64(clock.Since(start))
		}
	}
	if f.derivation == nil {
		s.runLoader(f, req)
	}

	sh.mu.Lock()
	delete(sh.inflight, id)
	// An invalidation of this query's relations during the loader run (or
	// the derivation — the ancestor's data may predate the update too)
	// means the result may predate the base-relation update: hand it to
	// the callers but do not cache it.
	f.stale = sh.staleSince(req.Relations, epoch)
	f.epoch = sh.epoch
	if f.err == nil && !f.stale {
		if f.derivation != nil {
			sh.cache.ReferenceDerived(core.Request{
				QueryID: id, Time: req.Time, Class: req.Class, Size: f.size, Cost: f.cost,
				Relations: req.Relations, Plan: req.Plan, ExecNanos: f.execNanos,
			}, sig, *f.derivation)
		} else {
			sh.cache.ReferenceExecuted(core.Request{
				QueryID: id, Time: req.Time, Class: req.Class, Size: f.size, Cost: f.cost,
				Relations: req.Relations, Payload: f.payload, Plan: req.Plan, ExecNanos: f.execNanos,
			}, sig)
		}
	} else {
		// The leader's outcome never reaches the miss lifecycle (loader
		// failure, or a coherence event made the result stale): charge the
		// reference as an external miss while the lock is already held.
		areq := core.Request{QueryID: id, Time: req.Time, Class: req.Class, Relations: req.Relations, ExecNanos: f.execNanos}
		if f.err == nil {
			areq.Size, areq.Cost = f.size, f.cost
		}
		sh.cache.Account(areq, false)
	}
	if len(sh.inflight) == 0 && len(sh.invalEpoch) > 0 {
		// The invalidation epochs exist only to fence in-flight loads;
		// prune the map so one entry per relation name ever invalidated
		// cannot accumulate forever. Pending followers of flights that
		// completed at an older epoch fall back to the conservative
		// clearedAt check above.
		clear(sh.invalEpoch)
		sh.clearedAt = sh.epoch
	}
	sh.mu.Unlock()
	f.wg.Done()
	if f.err != nil {
		return nil, false, f.err
	}
	// A derived answer was served from cache content; report it as a hit
	// so callers know no remote execution happened.
	return f.payload, f.derivation != nil && !f.stale, nil
}

// runLoader executes the loader outside all locks, converting a panic into
// an error so a misbehaving loader cannot strand the flight's followers —
// the inflight entry must always be removed and the WaitGroup completed.
// With a registry attached, the execution is timed into the load-latency
// histogram; with a flight recorder attached, the wall time lands on the
// flight so the leader's span can attribute it to its load stage.
func (s *Sharded) runLoader(f *flight, req core.Request) {
	var start time.Time
	if s.reg != nil || s.rec != nil {
		start = clock.Now()
	}
	defer func() {
		if r := recover(); r != nil {
			f.err = fmt.Errorf("shard: loader panicked: %v", r)
		}
		s.loaderCalls.Add(1)
		if s.reg != nil {
			s.reg.ObserveLoad(clock.Since(start).Seconds(), f.err != nil)
		}
		if s.rec != nil {
			f.execNanos += int64(clock.Since(start))
		}
	}()
	f.payload, f.size, f.cost, f.err = s.loader(req)
}

// Peek reports whether the query's retrieved set is resident, without
// recording a reference.
func (s *Sharded) Peek(queryID string) (payload any, ok bool) {
	var buf [256]byte
	id, sig := core.Canonical(buf[:0], queryID)
	return s.PeekBytes(id, sig)
}

// PeekBytes is Peek for callers that hold core.Canonical's output and want
// the canonical ID for their own use as well (GET /v1/explain/{id} keys the
// flight recorder by it). id is only read during the call.
func (s *Sharded) PeekBytes(id []byte, sig uint64) (payload any, ok bool) {
	sh := s.shardFor(sig)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.cache.LookupBytes(id, sig); ok {
		return e.Payload, true
	}
	return nil, false
}

// Invalidate drops every entry touching any of the given base relations
// from every shard and returns the number of resident sets dropped.
func (s *Sharded) Invalidate(relations ...string) int {
	if dr, ok := s.deriver.(interface{ DropRelations(...string) }); ok {
		// Purge the derivation index before the per-shard sweep: shards
		// are locked sequentially, and a reference racing the sweep must
		// not derive from a candidate in a shard the sweep has not
		// reached yet and plant pre-update data into one it already has.
		dr.DropRelations(relations...)
	}
	dropped := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		// Fence in-flight loads that read these relations: their results
		// may now be stale.
		sh.epoch++
		for _, r := range relations {
			sh.invalEpoch[r] = sh.epoch
		}
		dropped += sh.cache.Invalidate(relations...)
		sh.mu.Unlock()
	}
	// Keep the θ shadows and the ghosts coherent too, or their scores
	// would credit hits on sets the live cache just dropped. Each feed
	// carries the invalidation in stream order relative to references.
	if s.tuner != nil {
		s.tuner.Invalidate(relations...)
	}
	if s.whatif != nil {
		s.whatif.Invalidate(relations...)
	}
	return dropped
}

// Stats returns the counters aggregated across all shards plus the
// concurrency layer's loader/coalescing counters.
func (s *Sharded) Stats() Stats {
	var out Stats
	for _, sh := range s.shards {
		sh.mu.Lock()
		st := sh.cache.Stats()
		sh.mu.Unlock()
		out.Stats.Add(st)
	}
	out.LoaderCalls = s.loaderCalls.Load()
	out.Coalesced = s.coalesced.Load()
	out.Derivations = s.derivations.Load()
	return out
}

// ShardStats returns each shard's own counters, for balance diagnostics.
func (s *Sharded) ShardStats() []core.Stats {
	out := make([]core.Stats, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.Lock()
		out[i] = sh.cache.Stats()
		sh.mu.Unlock()
	}
	return out
}

// Resident returns the total number of cached retrieved sets.
func (s *Sharded) Resident() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.cache.Resident()
		sh.mu.Unlock()
	}
	return n
}

// UsedBytes returns the payload plus metadata bytes charged across shards.
func (s *Sharded) UsedBytes() int64 {
	var n int64
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.cache.UsedBytes()
		sh.mu.Unlock()
	}
	return n
}

// Capacity returns the total configured capacity across shards.
func (s *Sharded) Capacity() int64 {
	var n int64
	for _, sh := range s.shards {
		if sh.cache.Config().Capacity == core.Unlimited {
			return core.Unlimited
		}
		n += sh.cache.Config().Capacity
	}
	return n
}

// Close stops the feed workers New started — the admission tuner's and
// the what-if matrix's — once the events already queued have reached the
// θ shadows and the ghosts. The cache stays usable and the tuner keeps
// its published θ and answers TuneOnce, Threshold and ArmScores; only the
// observers stop learning, so a graceful shutdown can Close before its
// final snapshot flush. Idempotent, and a no-op without either observer.
func (s *Sharded) Close() {
	if s.tuner != nil {
		s.tuner.Close()
	}
	if s.whatif != nil {
		s.whatif.Close()
	}
}

// Clock returns the largest logical time any shard has seen.
func (s *Sharded) Clock() float64 {
	var max float64
	for _, sh := range s.shards {
		sh.mu.Lock()
		if t := sh.cache.Clock(); t > max {
			max = t
		}
		sh.mu.Unlock()
	}
	return max
}

// CheckInvariants verifies every shard's internal consistency and that no
// flight outlived its execution. Tests drive it after concurrent hammering.
func (s *Sharded) CheckInvariants() error {
	for i, sh := range s.shards {
		sh.mu.Lock()
		err := sh.cache.CheckInvariants()
		n := len(sh.inflight)
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		if n != 0 {
			return fmt.Errorf("shard %d: %d flights leaked", i, n)
		}
	}
	return nil
}
