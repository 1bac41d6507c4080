package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/workload"
)

// BufferSimConfig parameterizes the WATCHMAN ↔ buffer-manager cooperation
// experiment of §3/§4.2 (Figure 7).
type BufferSimConfig struct {
	// Queries is the number of query submissions (paper: 17 000).
	Queries int
	// Seed drives workload generation.
	Seed int64
	// PoolBytes is the buffer pool size (paper: 15 MB).
	PoolBytes int64
	// CacheBytes is the WATCHMAN cache size (paper: 15 MB).
	CacheBytes int64
	// P0 is the redundancy threshold in [0, 1]: pages whose query
	// reference set is at least P0 cached are demoted on a hint. A
	// negative P0 disables hints entirely (the baseline).
	P0 float64
}

func (c *BufferSimConfig) normalize() {
	if c.Queries <= 0 {
		c.Queries = 17000
	}
	if c.PoolBytes <= 0 {
		c.PoolBytes = 15 << 20
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 15 << 20
	}
}

// BufferSimResult reports the outcome of one cooperation run.
type BufferSimResult struct {
	P0             float64
	BufferStats    buffer.Stats
	CacheStats     core.Stats
	PageReferences int64
	HintsSent      int64
	PagesDemoted   int64
}

// BufferHitRatio returns the buffer pool hit ratio, the paper's Figure 7
// y-axis.
func (r BufferSimResult) BufferHitRatio() float64 { return r.BufferStats.HitRatio() }

// RunBufferSim runs the cooperation experiment over the given database and
// template set. Queries whose retrieved set is cached by WATCHMAN never
// reach the buffer pool; on every miss the query's page accesses stream
// through the pool. After WATCHMAN admits a retrieved set it hints the pool
// to demote the pages that became P0-redundant; the pool moves them to the
// eviction end of its LRU chain.
//
// The per-page query reference sets the paper describes are kept in
// compressed form — two counters per page: the number of distinct queries
// that ever referenced the page, and how many of those queries' retrieved
// sets are currently cached. This is one of the "compression techniques to
// minimize the amount of information necessary to compute the query
// reference set" that §3 mentions, and it keeps the experiment's memory
// footprint proportional to the page count, not to the 26-million-entry
// reference stream.
func RunBufferSim(db *relation.Database, templates []*workload.Template, cfg BufferSimConfig) (BufferSimResult, error) {
	cfg.normalize()
	eng := engine.New(db)
	pager := eng.Pager()
	pageSize := int64(db.PageSize)
	pool := buffer.NewPool(int(cfg.PoolBytes / pageSize))

	totalPages := pager.TotalPages()
	refCount := make([]int32, totalPages)    // distinct queries that referenced the page
	cachedCount := make([]int32, totalPages) // of those, how many are currently cached

	// PageIDs pack (relation, page); build a dense index for the counters.
	denseIndex := make(map[buffer.PageID]int32, totalPages)
	next := int32(0)
	for _, rel := range db.RelationNames() {
		for p := int64(0); p < pager.Pages(rel); p++ {
			denseIndex[pager.PageID(rel, p)] = next
			next++
		}
	}

	type queryInfo struct {
		plan     engine.Node
		seed     uint64
		size     int64
		cost     float64
		executed bool // whether its pages are in the reference counts
	}
	queries := make(map[string]*queryInfo)

	result := BufferSimResult{P0: cfg.P0}

	// pagesOf re-derives a query's page set deterministically.
	pagesOf := func(qi *queryInfo) ([]buffer.PageID, error) {
		var pages []buffer.PageID
		_, err := eng.EmitAccess(qi.plan, qi.seed, storage.SinkFunc(func(id buffer.PageID) {
			pages = append(pages, id)
		}))
		return pages, err
	}

	// The reference-set counters only track queries that have executed at
	// least once (only those contributed page references). A query admitted
	// on its very first miss is accounted for right after its execution
	// below, so admissions and evictions only adjust counts for
	// already-executed queries.
	var hintErr error
	onAdmit := func(e *core.Entry) {
		if cfg.P0 < 0 || hintErr != nil {
			return
		}
		qi := queries[e.ID]
		if qi == nil || !qi.executed {
			return
		}
		pages, err := pagesOf(qi)
		if err != nil {
			hintErr = err
			return
		}
		for _, pid := range pages {
			cachedCount[denseIndex[pid]]++
		}
		// The paper's hint moves *all* p₀-redundant pages to the LRU
		// end, not only the pages of the newly cached set. At p₀ = 0
		// every referenced page trivially qualifies — the "modified LRU
		// degenerates to MRU" case of Figure 7.
		result.HintsSent++
		for _, pid := range pool.LRUOrder() {
			di := denseIndex[pid]
			if refCount[di] > 0 && float64(cachedCount[di]) >= cfg.P0*float64(refCount[di]) {
				pool.Demote(pid)
				result.PagesDemoted++
			}
		}
	}
	onEvict := func(e *core.Entry) {
		if cfg.P0 < 0 || hintErr != nil {
			return
		}
		qi := queries[e.ID]
		if qi == nil || !qi.executed {
			return
		}
		pages, err := pagesOf(qi)
		if err != nil {
			hintErr = err
			return
		}
		for _, pid := range pages {
			if di := denseIndex[pid]; cachedCount[di] > 0 {
				cachedCount[di]--
			}
		}
	}
	// A set leaves the cache on a replacement eviction, or when a
	// coherence event drops it while resident.
	wm, err := core.New(core.Config{
		Capacity: cfg.CacheBytes,
		K:        4,
		Policy:   core.LNCRA,
		Sink: core.EventSinkFunc(func(ev core.Event) {
			switch ev.Kind {
			case core.EventMissAdmitted:
				onAdmit(ev.Entry)
			case core.EventEvict:
				onEvict(ev.Entry)
			case core.EventInvalidate:
				if ev.Resident {
					onEvict(ev.Entry)
				}
			case core.EventHit, core.EventMissRejected, core.EventExternalMiss,
				core.EventHitDerived, core.EventRestore:
				// Only residency changes move the reference-set counters.
			}
		}),
	})
	if err != nil {
		return result, err
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	totalWeight := 0.0
	for _, t := range templates {
		w := t.Weight
		if w <= 0 {
			w = 1
		}
		totalWeight += w
	}

	now := 0.0
	for i := 0; i < cfg.Queries; i++ {
		now += rng.ExpFloat64() // mean inter-arrival time of one second
		t := pickWeighted(templates, totalWeight, rng)
		q := t.Gen(rng)
		// The cache reports entries under compressed IDs (its lookup key),
		// so the query map uses the same key.
		cid := core.CompressID(q.ID)
		qi := queries[cid]
		if qi == nil {
			est, err := eng.Estimate(q.Plan)
			if err != nil {
				return result, fmt.Errorf("sim: buffer: estimating %s: %w", t.Name, err)
			}
			qi = &queryInfo{
				plan: q.Plan,
				seed: core.Signature(cid),
				size: clampEstimate(est),
				cost: est.Cost,
			}
			queries[cid] = qi
		}

		// The paper's order of events: a cache hit serves the retrieved set
		// without touching the buffer pool; a miss executes the query
		// (streaming its page accesses through the pool), and only then is
		// the retrieved set offered to the cache — so admission hints see
		// the query's pages already accounted in the reference sets.
		if _, cached := wm.Peek(q.ID); !cached {
			sink := &storage.PoolSink{Pool: pool}
			n, err := eng.EmitAccess(qi.plan, qi.seed, sink)
			if err != nil {
				return result, err
			}
			result.PageReferences += n
			if !qi.executed {
				qi.executed = true
				pages, err := pagesOf(qi)
				if err != nil {
					return result, err
				}
				for _, pid := range pages {
					refCount[denseIndex[pid]]++
				}
			}
		}
		wm.Reference(core.Request{
			QueryID: q.ID,
			Time:    now,
			Size:    qi.size,
			Cost:    qi.cost,
		})
		if hintErr != nil {
			return result, hintErr
		}
	}
	result.BufferStats = pool.Stats()
	result.CacheStats = wm.Stats()
	return result, nil
}

// pickWeighted draws a template proportionally to its weight.
func pickWeighted(templates []*workload.Template, totalWeight float64, rng *rand.Rand) *workload.Template {
	x := rng.Float64() * totalWeight
	for _, t := range templates {
		w := t.Weight
		if w <= 0 {
			w = 1
		}
		x -= w
		if x < 0 {
			return t
		}
	}
	return templates[len(templates)-1]
}

// clampEstimate converts an estimate to a positive retrieved-set size.
func clampEstimate(est engine.Est) int64 {
	w := int64(est.Schema.RowWidth())
	if w < 1 {
		w = 1
	}
	s := int64(est.Bytes)
	if s < w {
		return w
	}
	return s
}
