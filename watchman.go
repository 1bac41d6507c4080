// Package watchman is the public API of this reproduction of
//
//	Scheuermann, Shim, Vingralek: "WATCHMAN: A Data Warehouse Intelligent
//	Cache Manager", Proceedings of the 22nd VLDB Conference, 1996.
//
// WATCHMAN caches entire retrieved sets of queries. Replacement is governed
// by LNC-R — victims are chosen in ascending order of the profit metric
// λᵢ·cᵢ/sᵢ (reference rate × execution cost ÷ size) — and admission by
// LNC-A, which caches a set only when its profit exceeds the aggregate
// profit of the sets it would evict. The package also provides the
// paper's LRU and LRU-K baselines, the benchmark workload generators and
// trace replay; the remaining baselines (LFU, LCS), the offline LNC*
// oracle and the experiment suite reproducing every figure of the
// paper's evaluation are run by the watchman command.
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
// can use Sharded.Reference instead, which mirrors Cache.Reference.
//
// # The daemon
//
// `watchman serve` exposes a Sharded cache over HTTP and `watchman
// loadgen` replays traces against it concurrently. What the daemon adds
// around the cache is switched on by serve flags and read over its
// protocol: -adaptive tunes the LNC-A threshold θ online (GET
// /v1/admission),
// -snapshot-path restores a warm cache on boot and persists it (POST
// /v1/snapshot), -debug attaches the flight recorder (GET /debug/requests,
// GET /v1/explain/{id}), -whatif the ghost-cache matrix (GET /v1/whatif),
// and GET /metrics serves the telemetry registry. docs/PERSISTENCE.md and
// docs/OBSERVABILITY.md describe each.
package watchman

import (
	"repro/internal/core"
	"repro/internal/derive"
	"repro/internal/engine"
	"repro/internal/shard"
)

// Config parameterizes a Cache. See the field documentation in the aliased
// type for details.
type Config = core.Config

// Cache is the WATCHMAN cache manager.
type Cache = core.Cache

// Request is one query submission presented to the cache.
type Request = core.Request

// PolicyKind selects a replacement/admission policy.
type PolicyKind = core.PolicyKind

// Replacement and admission policies.
const (
	// LRU is the vanilla least-recently-used baseline.
	LRU = core.LRU
	// LRUK is LRU-K at retrieved-set granularity.
	LRUK = core.LRUK
	// LNCR is the paper's Least Normalized Cost replacement.
	LNCR = core.LNCR
	// LNCRA is LNC-R with the LNC-A admission algorithm.
	LNCRA = core.LNCRA
)

// New creates a cache manager.
func New(cfg Config) (*Cache, error) { return core.New(cfg) }

// ShardedConfig parameterizes a Sharded cache: the shard count, the total
// capacity and per-shard cache configuration, an optional Loader for
// singleflight miss coalescing, and an optional time source.
type ShardedConfig = shard.Config

// Sharded is the concurrent cache: capacity partitioned over a power-of-two
// number of mutex-guarded shards, routed by Signature of the compressed
// query ID. All methods are safe for concurrent use.
type Sharded = shard.Sharded

// NewSharded creates a concurrent sharded cache manager.
func NewSharded(cfg ShardedConfig) (*Sharded, error) { return shard.New(cfg) }

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

// SemanticDeriver answers a missed request from cached content: it
// indexes the plan descriptors of currently cached entries off the event
// stream, matches misses against them with the engine's containment rules
// (predicate subsumption, group-by roll-up, re-aggregation of detail
// rows) and rewrites answers when derivation beats remote execution.
// Install one via Config.Deriver (or ShardedConfig.Deriver for the
// concurrent front).
type SemanticDeriver = derive.Deriver

// PlanDescriptor is the serializable plan summary derivation matches on:
// one predicated, projected scan of a base relation, optionally grouped
// and aggregated. Attach one to Request.Plan.
type PlanDescriptor = engine.Descriptor

// Pred is one conjunctive scan predicate of a PlanDescriptor.
type Pred = engine.Pred

// AggSpec is one aggregate output of a PlanDescriptor.
type AggSpec = engine.AggSpec

// OpRange is the Pred operator matching values in the closed interval
// [Pred.Lo, Pred.Hi].
const OpRange = engine.OpRange

// AggSum is the AggSpec function SUM(col).
const AggSum = engine.AggSum

// NewDeriver creates a semantic deriver.
func NewDeriver() *SemanticDeriver { return derive.New() }
