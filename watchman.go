// Package watchman is the public API of this reproduction of
//
//	Scheuermann, Shim, Vingralek: "WATCHMAN: A Data Warehouse Intelligent
//	Cache Manager", Proceedings of the 22nd VLDB Conference, 1996.
//
// WATCHMAN caches entire retrieved sets of queries. Replacement is governed
// by LNC-R — victims are chosen in ascending order of the profit metric
// λᵢ·cᵢ/sᵢ (reference rate × execution cost ÷ size) — and admission by
// LNC-A, which caches a set only when its profit exceeds the aggregate
// profit of the sets it would evict. The package also provides the paper's
// baselines (vanilla LRU, LRU-K, LFU, LCS), the offline LNC* oracle, the
// benchmark workload generators and the full experiment suite reproducing
// every figure of the paper's evaluation.
//
// Basic usage:
//
//	cache, err := watchman.New(watchman.Config{
//		Capacity: 64 << 20, // bytes
//		K:        4,
//		Policy:   watchman.LNCRA,
//	})
//	...
//	hit, payload := cache.Reference(watchman.Request{
//		QueryID: "select count(*) from bench where k100 = 7",
//		Time:    12.5,      // logical seconds
//		Size:    8,         // retrieved-set bytes
//		Cost:    25000,     // execution cost (block reads)
//		Payload: rows,      // optional materialized result
//	})
//
// On a hit, payload is the previously stored retrieved set. On a miss the
// caller executes the query; the cache has already decided admission and
// stored the payload if admitted.
//
// # Concurrent usage
//
// Cache is single-threaded by design (simulations stay deterministic).
// For concurrent traffic use NewSharded, which partitions capacity across
// mutex-guarded shards, routes by the query-ID signature, stamps requests
// from a wall-clock time source, and coalesces concurrent misses on the
// same query into one Loader execution:
//
//	cache, err := watchman.NewSharded(watchman.ShardedConfig{
//		Shards: 16,
//		Cache:  watchman.Config{Capacity: 1 << 30, K: 4, Policy: watchman.LNCRA},
//		Loader: func(req watchman.Request) (payload any, size int64, cost float64, err error) {
//			rows, stats := executeQuery(req.QueryID) // runs once per in-flight query
//			return rows, stats.Bytes, stats.BlockReads, nil
//		},
//	})
//	...
//	payload, hit, err := cache.Load(watchman.Request{QueryID: query})
//
// Callers that already know a query's size and cost (e.g. trace replays)
// can use Sharded.Reference instead, which mirrors Cache.Reference. The
// `watchman serve` command exposes a Sharded cache over HTTP, and
// `watchman loadgen` replays traces against it concurrently.
//
// # Adaptive admission
//
// The LNC-A admission rule generalizes to admit ⇔ profit > θ·bar, and an
// AdmissionTuner tunes θ online by scoring a grid of candidates against
// shadow caches fed with recent traffic:
//
//	tuner, err := watchman.NewAdmissionTuner(watchman.AdmissionConfig{Capacity: 1 << 30})
//	cache, err := watchman.NewSharded(watchman.ShardedConfig{
//		Cache: watchman.Config{Capacity: 1 << 30, K: 4, Policy: watchman.LNCRA},
//		Tuner: tuner,
//	})
//
// The hot-path threshold read is a single atomic load; tuning rounds run
// in the background. `watchman compare` measures the adaptive admitter
// against the static policies, and `watchman serve -adaptive` exposes the
// tuner state at GET /v1/admission.
//
// # Snapshot persistence
//
// Everything a cache has learned — resident payloads, retained reference
// histories, λ-estimator state, Stats and the adaptive θ — can be
// captured as a versioned, CRC-checked binary snapshot and restored into
// a fresh cache before it starts serving, so a restart resumes warm:
//
//	var buf bytes.Buffer
//	info, err := cache.StreamSnapshot(&buf)           // Sharded: all shards
//	...
//	fresh, _ := watchman.NewSharded(sameConfig)
//	report, err := fresh.Restore(bytes.NewReader(buf.Bytes()))
//
// Sharded.NewSnapshotter adds file persistence with a background interval
// loop and atomic replace; `watchman serve -snapshot-path` wires it into
// the daemon (restore on boot, POST /v1/snapshot on demand, final flush
// on SIGTERM) and `watchman compare -restart` measures warm-vs-cold
// restart cost savings.
//
// # Observability
//
// Every reference ends in exactly one typed lifecycle Event (Config.Sink).
// A TelemetryRegistry aggregates events into counters, breakdowns and
// latency histograms; a FlightRecorder additionally captures sampled
// per-reference spans with monotonic per-stage timings and an audit ring
// of admission/eviction decisions:
//
//	cache, err := watchman.NewSharded(watchman.ShardedConfig{
//		Cache:    watchman.Config{Capacity: 1 << 30, K: 4, Policy: watchman.LNCRA},
//		Registry: watchman.NewTelemetryRegistry(),
//		Recorder: watchman.NewFlightRecorder(watchman.FlightConfig{SampleEvery: 64}),
//	})
//
// `watchman serve -debug` surfaces the recorder over HTTP — recent spans
// at GET /debug/requests, per-signature decision audits at
// GET /v1/explain/{id} with the admission inequality spelled out — and
// mounts net/http/pprof under /debug/pprof. Both hooks are nil-guarded:
// a cache without a registry or recorder pays nothing for them.
//
// A WhatIfMatrix answers counterfactual capacity and policy questions
// live: it replays a deterministic hash-sampled slice of the reference
// stream into a grid of ghost caches (capacity ladder × policy set) and
// reports each configuration's estimated CSR, per-policy miss-ratio
// curves, and an advisor verdict naming the cheapest configuration that
// would beat the current one:
//
//	ghosts, err := watchman.NewWhatIfMatrix(watchman.WhatIfConfig{Base: cacheCfg})
//	cache, err := watchman.NewSharded(watchman.ShardedConfig{Cache: cacheCfg, WhatIf: ghosts})
//
// `watchman serve -whatif` exposes the matrix at GET /v1/whatif and as
// watchman_whatif_* Prometheus families; `watchman compare -whatif`
// runs the same grid over an offline trace.
package watchman

import (
	"io"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/derive"
	"repro/internal/engine"
	"repro/internal/flight"
	"repro/internal/persist"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/whatif"
)

// Config parameterizes a Cache. See the field documentation in the aliased
// type for details.
type Config = core.Config

// Cache is the WATCHMAN cache manager.
type Cache = core.Cache

// Entry is one cached retrieved set (or its retained reference record).
type Entry = core.Entry

// Request is one query submission presented to the cache.
type Request = core.Request

// Stats are the cache's cumulative counters and the paper's metrics.
type Stats = core.Stats

// PolicyKind selects a replacement/admission policy.
type PolicyKind = core.PolicyKind

// Replacement and admission policies.
const (
	// LRU is the vanilla least-recently-used baseline.
	LRU = core.LRU
	// LRUK is LRU-K at retrieved-set granularity.
	LRUK = core.LRUK
	// LFU is least-frequently-used.
	LFU = core.LFU
	// LCS evicts the largest set first (ADMS baseline).
	LCS = core.LCS
	// LNCR is the paper's Least Normalized Cost replacement.
	LNCR = core.LNCR
	// LNCRA is LNC-R with the LNC-A admission algorithm.
	LNCRA = core.LNCRA
)

// Unlimited is a Config.Capacity value denoting an infinite cache.
const Unlimited = core.Unlimited

// New creates a cache manager.
func New(cfg Config) (*Cache, error) { return core.New(cfg) }

// CompressID canonicalizes a query string into a query ID by collapsing
// delimiter runs, as §3 of the paper describes. A string that is already
// canonical is returned as it is. Cache.Reference and Sharded.Reference
// do this themselves — in one pass with the signature, into a buffer on
// the stack — so callers need it only to name a set the way the cache
// does (event IDs, snapshot records, /v1/explain).
func CompressID(query string) string { return core.CompressID(query) }

// Signature returns the hash signature the cache's lookup index buckets
// entries by and the sharded cache routes by: 64-bit FNV-1a over the
// bytes of a query ID.
func Signature(id string) uint64 { return core.Signature(id) }

// ShardedConfig parameterizes a Sharded cache: the shard count, the total
// capacity and per-shard cache configuration, an optional Loader for
// singleflight miss coalescing, and an optional time source.
type ShardedConfig = shard.Config

// Sharded is the concurrent cache: capacity partitioned over a power-of-two
// number of mutex-guarded shards, routed by Signature of the compressed
// query ID. All methods are safe for concurrent use.
type Sharded = shard.Sharded

// ShardedStats aggregates the core counters across shards and adds the
// loader/coalescing counters of the concurrency layer.
type ShardedStats = shard.Stats

// Loader executes a query on a coalesced miss; see ShardedConfig.
type Loader = shard.Loader

// DefaultShards is the shard count used when ShardedConfig.Shards is zero.
const DefaultShards = shard.DefaultShards

// NewSharded creates a concurrent sharded cache manager.
func NewSharded(cfg ShardedConfig) (*Sharded, error) { return shard.New(cfg) }

// WallClock returns a time source mapping wall time to the cache's logical
// seconds, anchored at the moment of the call. NewSharded installs one by
// default; it is exported so tests and multi-cache setups can share one.
func WallClock() func() float64 { return shard.WallClock() }

// Admitter decides cache admission on the miss path: it is consulted
// whenever admitting a missed set would require evictions. Install a
// custom one via Config.Admitter; nil selects the policy default (the
// LNC-A profit test for LNCRA, admit-always otherwise).
type Admitter = core.Admitter

// AdmitterFunc adapts a plain function to the Admitter interface.
type AdmitterFunc = core.AdmitterFunc

// AdmissionDecision carries the quantities of the §2.2 profit comparison
// an Admitter rules on.
type AdmissionDecision = core.AdmissionDecision

// LNCA returns the paper's static LNC-A admission test (admit only when
// the candidate's profit strictly exceeds its victims' aggregate profit).
func LNCA() Admitter { return core.LNCA() }

// AdmissionConfig parameterizes an AdmissionTuner: shadow capacity,
// tuning window, candidate threshold grid, EMA and hysteresis factors.
type AdmissionConfig = admission.Config

// AdmissionTuner tunes the LNC-A admission threshold online: it profiles
// recent references, scores a log-spaced grid of candidate thresholds
// against persistent shadow caches, and atomically publishes the winner.
// Install one via ShardedConfig.Tuner (serving) or use Config.Admitter =
// tuner.Admitter() with a single-threaded Cache.
type AdmissionTuner = admission.Tuner

// TuningRound summarizes one completed tuning round of an AdmissionTuner.
type TuningRound = admission.Round

// NewAdmissionTuner creates an adaptive admission tuner. The initial
// published threshold is the static LNC-A setting θ = 1.
func NewAdmissionTuner(cfg AdmissionConfig) (*AdmissionTuner, error) { return admission.New(cfg) }

// Deriver decides whether a missed request can be answered from cached
// content; install one via Config.Deriver (or ShardedConfig.Deriver for
// the concurrent front). NewDeriver builds the standard implementation.
type Deriver = core.Deriver

// Derivation is the outcome of a successful Deriver.Derive call: the
// derived payload, its size, the derivation cost, the remote-cost basis
// and the cached ancestor it came from.
type Derivation = core.Derivation

// SemanticDeriver is the standard Deriver: it indexes the plan
// descriptors of currently cached entries off the event stream, matches
// misses against them with the engine's containment rules (predicate
// subsumption, group-by roll-up, re-aggregation of detail rows) and
// rewrites answers when derivation beats remote execution.
type SemanticDeriver = derive.Deriver

// DeriverConfig parameterizes a SemanticDeriver.
type DeriverConfig = derive.Config

// PlanDescriptor is the serializable plan summary derivation matches on:
// one predicated, projected scan of a base relation, optionally grouped
// and aggregated. Attach one to Request.Plan.
type PlanDescriptor = engine.Descriptor

// Pred is one conjunctive scan predicate of a PlanDescriptor.
type Pred = engine.Pred

// AggSpec is one aggregate output of a PlanDescriptor.
type AggSpec = engine.AggSpec

// Predicate comparison operators.
const (
	// OpEQ matches values equal to Pred.Lo.
	OpEQ = engine.OpEQ
	// OpRange matches values in the closed interval [Pred.Lo, Pred.Hi].
	OpRange = engine.OpRange
)

// Aggregate functions.
const (
	// AggCount is COUNT(*).
	AggCount = engine.AggCount
	// AggSum is SUM(col).
	AggSum = engine.AggSum
	// AggAvg is AVG(col).
	AggAvg = engine.AggAvg
	// AggMin is MIN(col).
	AggMin = engine.AggMin
	// AggMax is MAX(col).
	AggMax = engine.AggMax
)

// NewDeriver creates a semantic deriver.
func NewDeriver(cfg DeriverConfig) *SemanticDeriver { return derive.New(cfg) }

// Event is one typed lifecycle notification of the telemetry spine: every
// reference ends in exactly one of hit, derived hit, admitted miss,
// rejected miss or external miss, and entry departures (evictions,
// invalidations) are reported too. Install a sink via Config.Sink.
type Event = core.Event

// EventKind enumerates the lifecycle outcomes an EventSink observes.
type EventKind = core.EventKind

// The lifecycle outcomes. See the core documentation for exact semantics.
const (
	// EventHit is a reference satisfied from cache.
	EventHit = core.EventHit
	// EventMissAdmitted is a miss whose retrieved set was cached.
	EventMissAdmitted = core.EventMissAdmitted
	// EventMissRejected is a miss denied admission.
	EventMissRejected = core.EventMissRejected
	// EventEvict is a resident set evicted by replacement.
	EventEvict = core.EventEvict
	// EventInvalidate is an entry dropped by a coherence event.
	EventInvalidate = core.EventInvalidate
	// EventExternalMiss is a reference charged via Cache.Account(req, false).
	EventExternalMiss = core.EventExternalMiss
	// EventHitDerived is a reference answered by semantic derivation from
	// a cached ancestor.
	EventHitDerived = core.EventHitDerived
	// EventRestore announces a resident entry re-admitted from a snapshot.
	EventRestore = core.EventRestore
)

// EventSink observes lifecycle events; see Config.Sink for the execution
// contract (runs under the cache's context, must not call back in).
type EventSink = core.EventSink

// EventSinkFunc adapts a plain function to the EventSink interface.
type EventSinkFunc = core.EventSinkFunc

// MultiSink combines several sinks into one that forwards every event to
// each, in argument order.
func MultiSink(sinks ...EventSink) EventSink { return core.MultiSink(sinks...) }

// TelemetryRegistry aggregates lifecycle events from every shard of a
// cache into lock-cheap counters: hits/misses/evictions/invalidations/
// external misses, per-class and per-relation cost-savings breakdowns, a
// load-latency histogram and per-shard reference counts. Attach one via
// ShardedConfig.Registry (or Config.Sink for a single-threaded Cache);
// read it with Snapshot or WritePrometheus. The server exposes it at
// GET /metrics in Prometheus text format.
type TelemetryRegistry = telemetry.Registry

// TelemetrySnapshot is a point-in-time copy of a TelemetryRegistry.
type TelemetrySnapshot = telemetry.Snapshot

// NewTelemetryRegistry creates an empty telemetry registry.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// Span is the flight-recorder record of one reference: its identity and
// outcome, monotonic per-stage wall timings, and the decision inputs the
// admission gate evaluated (profit, bar, θ, λ, reference depth). Spans are
// delivered to a SpanSink installed via Config.Tracer.
type Span = core.Span

// Stage indexes one lifecycle stage of a reference Span.
type Stage = core.Stage

// The lifecycle stages a Span times, in hot-path order.
const (
	// StageLookup is the index probe locating the entry (or not).
	StageLookup = core.StageLookup
	// StageDerive is time spent consulting the semantic deriver.
	StageDerive = core.StageDerive
	// StageLoad is loader execution time attributed by the concurrent front.
	StageLoad = core.StageLoad
	// StageAdmit covers reference accounting, victim selection and the
	// LNC-A profit comparison.
	StageAdmit = core.StageAdmit
	// StageInsert is the residency commit of an admitted set.
	StageInsert = core.StageInsert
	// StageEvict covers evicting the victim batch of an admission.
	StageEvict = core.StageEvict
	// NumStages is the number of lifecycle stages.
	NumStages = core.NumStages
)

// SpanSink observes completed reference spans; install one via
// Config.Tracer. It runs under the cache's execution context and must not
// call back into the cache. Nil disables span capture at no hot-path cost
// beyond a nil check.
type SpanSink = core.SpanSink

// ThresholdReporter is implemented by admitters whose rule is the
// thresholded comparison admit ⇔ profit > θ·bar and that can report the
// current θ; the cache stamps it onto decision events and spans so the
// exact inequality can be reproduced after the fact.
type ThresholdReporter = core.ThresholdReporter

// FlightRecorder holds bounded per-shard ring buffers of sampled
// reference spans (always capturing slow ones) and unconditional
// admission/eviction decision records. Attach one via
// ShardedConfig.Recorder; `watchman serve -debug` surfaces it at
// GET /debug/requests and GET /v1/explain/{id}.
type FlightRecorder = flight.Recorder

// FlightConfig parameterizes a FlightRecorder: sampling ratio, slow-span
// threshold, ring capacities and the optional telemetry registry fed with
// per-stage latency from every span.
type FlightConfig = flight.Config

// FlightDecision is the audit record of one admission or eviction ruling:
// the outcome and every input the gate evaluated.
type FlightDecision = flight.Decision

// NewFlightRecorder creates a flight recorder; the zero FlightConfig
// selects every default.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder { return flight.New(cfg) }

// WhatIfMatrix is the live ghost-cache grid: counterfactual (capacity ×
// policy) configurations continuously re-simulated from a hash-sampled
// slice of the reference stream. Attach one via ShardedConfig.WhatIf;
// read it with Matrix.Report or the watchman_whatif_* Prometheus
// families. Unsampled references cost no allocation and no lock on the
// hot path; sampled ones are applied by a background worker.
type WhatIfMatrix = whatif.Matrix

// WhatIfConfig parameterizes a WhatIfMatrix: the live cache's base
// Config, the 1-in-R sampling rate (ghost capacities are scaled by 1/R),
// the capacity ladder and policy set, and the advisor baseline.
type WhatIfConfig = whatif.Config

// WhatIfPolicy is one policy-axis entry of the ghost matrix.
type WhatIfPolicy = whatif.Policy

// WhatIfReport is the full matrix snapshot: per-cell estimates,
// per-policy miss-ratio curves and the advisor verdict. GET /v1/whatif
// serves it as JSON.
type WhatIfReport = whatif.Report

// NewWhatIfMatrix builds a ghost-cache matrix and starts its background
// worker; Close it (or Sharded.Close, which closes an attached matrix)
// to stop.
func NewWhatIfMatrix(cfg WhatIfConfig) (*WhatIfMatrix, error) { return whatif.New(cfg) }

// RegretTracker accumulates the regret report from a cache's event
// stream: signatures that admission rejected and that were referenced
// again, ranked by the execution cost those re-references paid. Attach it
// next to other sinks with MultiSink; `watchman compare -explain` prints
// its report.
type RegretTracker = flight.RegretTracker

// Regret is the accumulated record of one rejected-then-re-referenced
// signature.
type Regret = flight.Regret

// NewRegretTracker creates a regret tracker bounded to maxEntries
// distinct signatures (≤ 0 selects the default bound).
func NewRegretTracker(maxEntries int) *RegretTracker { return flight.NewRegretTracker(maxEntries) }

// Snapshot is the in-memory form of one persisted cache image: one
// CacheState per shard plus the optional adaptive admission state.
// ReadSnapshot decodes one from a Sharded.StreamSnapshot image; one built
// from Cache.ExportState serializes with WriteSnapshot.
type Snapshot = persist.Snapshot

// CacheState is the exportable learned state of one cache: entries,
// reference histories, λ context and Stats.
type CacheState = core.CacheState

// EntryState is the exportable form of one cache record.
type EntryState = core.EntryState

// RestoreReport summarizes what a Sharded.Restore did: how many records
// came back resident or retained, what was demoted or dropped by a
// capacity/policy change, and whether the admission θ survived.
type RestoreReport = shard.RestoreReport

// Snapshotter persists a Sharded cache to a file on a schedule and on
// demand, with atomic replace; obtain one from Sharded.NewSnapshotter.
type Snapshotter = shard.Snapshotter

// SnapshotInfo describes one completed snapshot write.
type SnapshotInfo = shard.SnapshotInfo

// ErrSnapshotInFlight reports that Snapshotter.TrySnapshot found another
// snapshot write already in progress; request-scoped callers should back
// off and retry rather than queue.
var ErrSnapshotInFlight = shard.ErrSnapshotInFlight

// TunerState is the exportable state of an AdmissionTuner: the published
// θ, per-candidate smoothed scores, and the buffered profile windows.
type TunerState = admission.TunerState

// WriteSnapshot encodes a snapshot in the WMSNAP binary format (versioned
// magic, CRC-checked sections).
func WriteSnapshot(w io.Writer, snap *Snapshot) error { return persist.Write(w, snap) }

// ReadSnapshot decodes a WMSNAP snapshot, verifying magic, version and
// every section checksum. It returns persist.ErrBadMagic,
// persist.ErrBadVersion or persist.ErrCorrupt on hostile input, never
// partially decoded state.
func ReadSnapshot(r io.Reader) (*Snapshot, error) { return persist.Read(r) }

// Item is one retrieved set in the §2.3 offline model.
type Item = core.Item

// LNCStar runs the offline greedy LNC* algorithm of §2.3: sort by
// pᵢ·cᵢ/sᵢ descending and fill the cache. Returns the selected index set.
func LNCStar(items []Item, capacity int64) map[int]bool {
	return core.LNCStar(items, capacity)
}

// ExpectedCostSavings returns the steady-state cost savings ratio of a
// static cache content under the §2.3 model.
func ExpectedCostSavings(items []Item, cached map[int]bool) float64 {
	return core.ExpectedCostSavings(items, cached)
}
