package core

// Entry is the cache's record for one retrieved set. Per §3 of the paper,
// an entry holds the query ID, an array of K reference timestamps, the
// retrieved set size, the execution cost of the query, and a pointer to the
// retrieved set itself. The same record doubles as the retained reference
// information of §2.4: after eviction the payload is dropped but the entry
// (with its reference times, size and cost) may stay behind, flagged
// non-resident.
type Entry struct {
	// ID is the compressed query ID.
	ID string
	// Sig is the signature (hash) of ID used by the lookup structure.
	Sig uint64
	// Size is the retrieved set size in bytes.
	Size int64
	// Cost is the execution cost of the associated query in logical block
	// reads.
	Cost float64
	// Class is the workload class of the query (multiclass extension, §6);
	// the telemetry registry's per-class accounting keys on it. Single-
	// class workloads use class 0.
	Class int
	// Relations lists the base relations the query reads; the coherence
	// hook invalidates entries by these names.
	Relations []string
	// Payload is the cached retrieved set (opaque to the cache). It is nil
	// for non-resident entries.
	Payload any
	// Plan is the query's plan descriptor (opaque to the cache); the
	// derivation subsystem indexes cached entries by it.
	Plan any

	window   refWindow
	resident bool
	// evIdx is the entry's position in its evictor's resident list; it is
	// meaningful only while the entry is resident.
	evIdx int
	// rc is the rate context shared with the owning cache; it supplies
	// the smoothing floor for λ denominators. It is nil for entries
	// created outside a cache, which then use the raw formula.
	rc *rateContext
}

// rateContext carries the cache-wide λ-denominator floor: the observed
// mean inter-arrival gap of references. All entries of one cache share it.
type rateContext struct {
	minDt float64
}

// floor returns the context's denominator floor, or 0 without a context.
func (e *Entry) floor() float64 {
	if e.rc == nil {
		return 0
	}
	return e.rc.minDt
}

// Resident reports whether the retrieved set itself is in the cache (true)
// or only its retained reference information (false).
func (e *Entry) Resident() bool { return e.resident }

// Refs returns the number of reference times currently recorded, capped at
// the window size K.
func (e *Entry) Refs() int { return e.window.count() }

// TotalRefs returns the lifetime number of references to the entry.
func (e *Entry) TotalRefs() int64 { return e.window.totalRefs() }

// LastRef returns the time of the most recent reference.
func (e *Entry) LastRef() float64 { return e.window.last() }

// Rate returns the sliding-window reference-rate estimate λ at time now.
func (e *Entry) Rate(now float64) float64 { return e.window.rate(now, e.floor()) }

// Profit returns the paper's profit metric at time now (§2.1):
//
//	profit(RSᵢ) = λᵢ · cᵢ / sᵢ
//
// Entries with no recorded references have zero profit.
func (e *Entry) Profit(now float64) float64 {
	if e.Size <= 0 {
		return 0
	}
	return e.Rate(now) * e.Cost / float64(e.Size)
}

// EProfit returns the estimated profit used when no reference information
// exists (§2.2): e-profit(RSᵢ) = cᵢ / sᵢ.
func (e *Entry) EProfit() float64 {
	if e.Size <= 0 {
		return 0
	}
	return e.Cost / float64(e.Size)
}

// touchesAny reports whether the entry's query reads any of the given
// relations.
func (e *Entry) touchesAny(rels map[string]bool) bool {
	for _, r := range e.Relations {
		if rels[r] {
			return true
		}
	}
	return false
}
