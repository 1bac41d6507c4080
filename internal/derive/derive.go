// Package derive is the semantic derivation subsystem of the WATCHMAN
// reproduction: it answers cache misses from cached retrieved sets that
// are not exact matches but *subsume* the incoming query — a superset
// scan answerable by re-filtering, or a finer aggregate answerable by
// rolling up along the group-by hierarchy ("don't trash your intermediate
// results, cache 'em").
//
// The Deriver keeps a per-relation index of the plan descriptors of
// currently cached entries, maintained off the cache's event stream (it
// implements core.EventSink; core.New attaches it automatically when it
// is installed as Config.Deriver). On a miss it scans the candidates for
// the cheapest subsuming ancestor and succeeds only when re-scanning it
// costs strictly less than the request's remote cost. When the
// ancestor's payload is a materialized engine result, the answer is
// rewritten row-for-row (bit-identical to remote execution — the
// equivalence corpus proves it); in bookkeeping replays without payloads
// only the cost accounting is derived.
//
// Derive runs under the owning cache's execution context (single-
// threaded, or with a shard mutex held) and takes only its own internal
// lock, so shards may consult one shared Deriver concurrently.
package derive

import (
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
)

// candidate is one cached entry the deriver may rewrite against.
type candidate struct {
	id      string
	desc    *engine.Descriptor
	payload *engine.Result // nil in bookkeeping replays
	size    int64
}

// Deriver implements core.Deriver and core.EventSink: a match-and-rewrite
// engine over the descriptors of currently cached entries.
type Deriver struct {
	// mu guards byRel: Emit and DropRelations write, Derive only reads,
	// so concurrent misses across shards scan the index in parallel.
	mu    sync.RWMutex
	byRel map[string]map[string]*candidate
}

// New creates an empty deriver.
func New() *Deriver {
	return &Deriver{byRel: make(map[string]map[string]*candidate)}
}

// DropRelations removes every indexed candidate over the given base
// relations. The sharded front calls it at the START of an invalidation
// — before the per-shard sweep begins — so a reference racing the sweep
// cannot derive from a candidate in a shard the sweep has not reached
// yet and admit pre-update data into a shard it already has. (The
// per-entry Invalidate events that follow are then no-ops here.)
func (d *Deriver) DropRelations(relations ...string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, r := range relations {
		delete(d.byRel, r)
	}
}

// Emit maintains the candidate index off the cache lifecycle stream:
// admissions with a descriptor enter, evictions and invalidations leave.
// It implements core.EventSink.
func (d *Deriver) Emit(ev core.Event) {
	switch ev.Kind {
	case core.EventMissAdmitted, core.EventRestore:
		// Restore events re-announce residency recovered from a snapshot;
		// they index exactly like a fresh admission.
		if ev.Entry == nil {
			return
		}
		desc, ok := ev.Entry.Plan.(*engine.Descriptor)
		if !ok || desc == nil {
			return
		}
		// The Entry pointer itself must not outlive Emit; copy the fields
		// the index needs. The payload pointer is safe to keep: results
		// are immutable once materialized, and coherence events drop the
		// candidate before the underlying data could go stale.
		c := &candidate{id: ev.ID, desc: desc, size: ev.Size}
		if res, ok := ev.Entry.Payload.(*engine.Result); ok {
			c.payload = res
		}
		d.mu.Lock()
		rel := d.byRel[desc.Rel]
		if rel == nil {
			rel = make(map[string]*candidate)
			d.byRel[desc.Rel] = rel
		}
		rel[ev.ID] = c
		d.mu.Unlock()
	case core.EventEvict, core.EventInvalidate:
		if ev.Entry == nil {
			return
		}
		desc, ok := ev.Entry.Plan.(*engine.Descriptor)
		if !ok || desc == nil {
			return
		}
		d.mu.Lock()
		if rel := d.byRel[desc.Rel]; rel != nil {
			delete(rel, ev.ID)
			if len(rel) == 0 {
				delete(d.byRel, desc.Rel)
			}
		}
		d.mu.Unlock()
	case core.EventHit, core.EventMissRejected, core.EventExternalMiss, core.EventHitDerived:
		// Reference outcomes do not change residency, so the candidate
		// index has nothing to learn from them.
	}
}

// Derive implements core.Deriver: it searches the indexed candidates for
// the cheapest cached ancestor subsuming the request's plan and, when
// derivation beats the remote cost req.Cost, returns the derived outcome.
// A request without a positive Cost has no basis to beat and is declined.
// Candidate selection is deterministic: least derivation cost, ties broken
// by ascending ancestor ID.
func (d *Deriver) Derive(req core.Request) (core.Derivation, bool) {
	desc, ok := req.Plan.(*engine.Descriptor)
	if !ok || desc == nil || req.Cost <= 0 {
		return core.Derivation{}, false
	}

	m := engine.NewMatcher(desc)
	d.mu.RLock()
	var best *candidate
	var bestCost float64
	for _, c := range d.byRel[desc.Rel] {
		if c.id == req.QueryID || !m.Subsumes(c.desc) {
			continue
		}
		cost := engine.DeriveCost(c.size)
		if cost >= req.Cost {
			continue
		}
		if best == nil || cost < bestCost || (cost == bestCost && c.id < best.id) {
			best, bestCost = c, cost
		}
	}
	d.mu.RUnlock()
	if best == nil {
		return core.Derivation{}, false
	}

	out := core.Derivation{Cost: bestCost, AncestorID: best.id, Size: req.Size}
	if best.payload != nil {
		res, err := engine.Rewrite(best.desc, desc, best.payload)
		if err != nil {
			// Subsumes held, so this is a programming error; fail the
			// derivation rather than serve a wrong answer.
			return core.Derivation{}, false
		}
		out.Payload = res
		out.Size = res.Bytes()
	}
	if out.Size <= 0 {
		// Without a payload or a request size there is nothing coherent
		// to account; decline.
		return core.Derivation{}, false
	}
	return out, true
}
