package core

// This file is the state-export half of snapshot persistence: everything
// the cache has learned — resident entries, retained reference histories,
// the λ-estimator context and the cumulative Stats — can be copied out as
// plain data (ExportState) and poured back into a freshly constructed
// cache (RestoreState). The binary encoding lives in internal/persist;
// core only defines the state model, so the dependency points outward.

import (
	"fmt"
	"math"
	"sort"
)

// EntryState is the exportable form of one Entry: the §3 record fields
// plus the reference window, free of pointers into live cache state.
type EntryState struct {
	// ID is the compressed query ID.
	ID string
	// Size is the retrieved set size in bytes.
	Size int64
	// Cost is the execution cost in logical block reads.
	Cost float64
	// Class is the workload class of the query.
	Class int
	// Relations lists the base relations the query reads.
	Relations []string
	// Resident reports whether the payload itself was cached (true) or
	// only retained reference information (false).
	Resident bool
	// RefTimes holds the recorded reference times, oldest first, at most
	// K of them.
	RefTimes []float64
	// TotalRefs is the lifetime reference count.
	TotalRefs int64
	// Payload is the cached retrieved set of a resident entry. It is
	// copied as an interface value: payloads are treated as immutable by
	// the whole system, so the copy is safe to serialize outside the
	// cache's execution context.
	Payload any
	// Plan is the query's plan descriptor, opaque to core; the persist
	// codec serializes the concrete types it knows.
	Plan any
}

// CacheState is a full copy of one cache's learned state. It is plain
// data: exporting takes one pass over the index, and the export shares no
// mutable structure with the cache (payload and plan values are assumed
// immutable).
type CacheState struct {
	// Capacity, K and Policy echo the configuration the state was
	// captured under, so a restore into a differently shaped cache can be
	// detected and reported.
	Capacity int64
	K        int
	Policy   PolicyKind
	// Clock is the cache's logical time at capture.
	Clock float64
	// FirstTime and HaveFirst carry the λ-denominator anchor (the time of
	// the first reference ever seen), MinDt the observed mean
	// inter-arrival gap that floors every λ estimate.
	FirstTime float64
	HaveFirst bool
	MinDt     float64
	// MissesSincePrune is the position within the retained-info pruning
	// period.
	MissesSincePrune int
	// Stats are the cumulative counters at capture.
	Stats Stats
	// Entries holds every record, resident and retained, in deterministic
	// (ascending ID) order.
	Entries []EntryState
}

// RestoreReport summarizes what a RestoreState call did.
type RestoreReport struct {
	// Resident and Retained count the records restored into each state.
	Resident int
	Retained int
	// DemotedResident counts resident entries that no longer fit the
	// capacity and were demoted to retained records (reference history
	// kept, payload dropped).
	DemotedResident int
	// Dropped counts records discarded entirely: resident sets that fit
	// neither state, or retained records under a policy that keeps none.
	Dropped int
}

// restoreWindow rebuilds a K-sized window from exported times (oldest
// first) and the lifetime total. When the exported window is wider than
// K (a restore into a smaller K), only the most recent K times survive —
// exactly what a live window would have kept.
func restoreWindow(k int, times []float64, total int64) refWindow {
	w := newRefWindow(k)
	for _, t := range times {
		w.record(t)
	}
	w.total = total
	return w
}

// ExportState captures the cache's full learned state: every resident and
// retained record with its reference history, the λ-estimator context and
// the cumulative Stats. The export is copy-on-read — it shares no mutable
// structure with the cache — so a concurrent wrapper can serialize it
// after releasing its lock. It drains one ExportBegin cursor in a single
// chunk, so entries come out in ascending ID order and two captures of
// identical caches are identical.
//
//lint:ignore unreferenced the materialized oracle: the core, persist, admission and shard tests and the root snapshot test compare the streamed export against it
func (c *Cache) ExportState() *CacheState {
	cur := c.ExportBegin()
	st := cur.Header
	st.Entries, _ = c.ExportChunk(cur, cur.Remaining(), make([]EntryState, 0, cur.Remaining()))
	return st
}

// RestoreState pours an exported state into the cache. The cache must be
// freshly constructed — no references served, nothing resident — because
// restore replaces the learned state wholesale rather than merging; the
// serving stack restores before it starts listening.
//
// Restoring into the same configuration reproduces the captured cache
// exactly. A smaller capacity demotes the lowest-profit resident sets to
// retained records until the rest fit (and the retained budget rule then
// applies as usual); a policy without retained information drops retained
// records. Each restored resident entry is announced to the configured
// event sinks with an EventRestore, so accountants that track cached
// content (the derivation index) relearn it.
func (c *Cache) RestoreState(st *CacheState) (RestoreReport, error) {
	var rep RestoreReport
	if c.stats.References != 0 || c.resident != 0 || len(c.retained) != 0 {
		return rep, fmt.Errorf("core: restore into a cache that already served traffic (%d refs, %d resident, %d retained)",
			c.stats.References, c.resident, len(c.retained))
	}
	// Non-finite values are the same poison class the trace decoder
	// rejects: one NaN cost or reference time makes Profit NaN, every
	// ordering comparison against it false, and the eviction order
	// silently wrong. A CRC only proves the file is what was written,
	// not that what was written is sane.
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	if !finite(st.Clock) || !finite(st.FirstTime) || !finite(st.MinDt) {
		return rep, fmt.Errorf("core: restore: non-finite clock state (clock %g, first %g, minDt %g)",
			st.Clock, st.FirstTime, st.MinDt)
	}
	if !finite(st.Stats.CostTotal) || !finite(st.Stats.CostSaved) ||
		!finite(st.Stats.DeriveCost) || !finite(st.Stats.FragSum) {
		// A NaN counter would make CostSavingsRatio NaN for the process
		// lifetime — the counters install verbatim, so check them here.
		return rep, fmt.Errorf("core: restore: non-finite stats (costTotal %g, costSaved %g, deriveCost %g, fragSum %g)",
			st.Stats.CostTotal, st.Stats.CostSaved, st.Stats.DeriveCost, st.Stats.FragSum)
	}
	seen := make(map[string]struct{}, len(st.Entries))
	for i := range st.Entries {
		es := &st.Entries[i]
		if es.ID == "" {
			return rep, fmt.Errorf("core: restore: entry %d has empty ID", i)
		}
		if _, dup := seen[es.ID]; dup {
			return rep, fmt.Errorf("core: restore: duplicate entry %q", es.ID)
		}
		seen[es.ID] = struct{}{}
		if es.Size <= 0 {
			return rep, fmt.Errorf("core: restore: entry %q has non-positive size %d", es.ID, es.Size)
		}
		if !finite(es.Cost) || es.Cost < 0 {
			return rep, fmt.Errorf("core: restore: entry %q has bad cost %g", es.ID, es.Cost)
		}
		for _, ts := range es.RefTimes {
			if !finite(ts) {
				return rep, fmt.Errorf("core: restore: entry %q has non-finite reference time %g", es.ID, ts)
			}
		}
		if es.TotalRefs < int64(len(es.RefTimes)) {
			// The lifetime count can never undercut the recorded window;
			// a negative count would pin the entry as LFU's first victim.
			return rep, fmt.Errorf("core: restore: entry %q has total refs %d below its %d recorded times",
				es.ID, es.TotalRefs, len(es.RefTimes))
		}
	}

	// Resident sets restore in descending profit order, so when the new
	// capacity is smaller than the captured one, the least profitable
	// sets are the ones demoted — the same preference the replacement
	// policy would express.
	order := make([]int, 0, len(st.Entries))
	profits := make([]float64, len(st.Entries))
	rc := &rateContext{minDt: st.MinDt}
	for i := range st.Entries {
		es := &st.Entries[i]
		if !es.Resident {
			continue
		}
		e := &Entry{Size: es.Size, Cost: es.Cost, window: restoreWindow(c.cfg.K, es.RefTimes, es.TotalRefs), rc: rc}
		profits[i] = e.Profit(st.Clock)
		order = append(order, i)
	}
	sort.Slice(order, func(a, b int) bool {
		if profits[order[a]] != profits[order[b]] {
			return profits[order[a]] > profits[order[b]]
		}
		return st.Entries[order[a]].ID < st.Entries[order[b]].ID
	})

	// The λ context must be live before profits are computed against the
	// restored clock.
	c.now = st.Clock
	c.firstTime = st.FirstTime
	c.haveFirst = st.HaveFirst
	c.rc.minDt = st.MinDt
	c.missesSincePrune = st.MissesSincePrune
	c.stats = st.Stats

	place := func(es *EntryState, resident bool) *Entry {
		e := &Entry{
			ID:    es.ID,
			Sig:   Signature(es.ID),
			Size:  es.Size,
			Cost:  es.Cost,
			Class: es.Class,
			rc:    c.rc,
		}
		if len(es.Relations) > 0 {
			e.Relations = append([]string(nil), es.Relations...)
		}
		e.window = restoreWindow(c.cfg.K, es.RefTimes, es.TotalRefs)
		// The plan descriptor survives eviction on live retained records
		// (only the payload is dropped), so restore keeps it for both
		// kinds — a restored cache re-snapshots to the captured bytes.
		e.Plan = es.Plan
		if resident {
			e.resident = true
			e.Payload = es.Payload
			c.usedPayload += e.Size
			c.resident++
			c.ev.add(e, c.now)
		} else {
			c.retained[e] = struct{}{}
		}
		c.indexInsert(e)
		return e
	}

	for _, i := range order {
		es := &st.Entries[i]
		need := es.Size + c.cfg.MetadataOverhead
		if c.cfg.Capacity != Unlimited && c.UsedBytes()+need > c.cfg.Capacity {
			if c.retainsInfo() {
				place(es, false)
				rep.Retained++
				rep.DemotedResident++
			} else {
				rep.Dropped++
			}
			continue
		}
		e := place(es, true)
		rep.Resident++
		if c.hasSinks() {
			c.emit(Event{Kind: EventRestore, Time: c.now, Class: e.Class, ID: e.ID,
				Size: e.Size, Cost: e.Cost, Relations: e.Relations, Entry: e, Resident: true})
		}
	}
	for i := range st.Entries {
		es := &st.Entries[i]
		if es.Resident {
			continue
		}
		if !c.retainsInfo() {
			rep.Dropped++
			continue
		}
		place(es, false)
		rep.Retained++
	}
	// Retained metadata alone may overflow a smaller capacity; the
	// standard budget rule sheds the least profitable records.
	c.enforceRetainedBudget(c.now)
	if err := c.CheckInvariants(); err != nil {
		return rep, fmt.Errorf("core: restore left inconsistent state: %w", err)
	}
	return rep, nil
}
