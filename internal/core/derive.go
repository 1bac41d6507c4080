package core

// This file is the core half of the semantic derivation hook. The cache
// itself knows nothing about plans: a configured Deriver is consulted on
// the miss path with the request (whose opaque Plan field carries the plan
// descriptor) and may answer it from content cached elsewhere in the same
// cache — a superset scan re-filtered, a finer aggregate rolled up. A
// successful derivation is a HitDerived outcome: the reference saves the
// remote cost minus the derivation cost, the ancestor entry is credited
// with a reference, and the derived set itself runs the ordinary admission
// machinery at its residual cost (what caching it would actually save,
// now that it is derivable).

// Derivation is the outcome of a successful Deriver.Derive call.
type Derivation struct {
	// Payload is the materialized derived retrieved set, or nil when the
	// deriver only does the cost accounting (trace replays without
	// materialized results).
	Payload any
	// Size is the derived set's size in bytes; zero means "unknown, use
	// the request's size".
	Size int64
	// Cost is the derivation cost in logical block reads. It must be
	// strictly below the remote cost for the derivation to count.
	Cost float64
	// AncestorID is the compressed query ID of the cached entry the answer
	// was derived from.
	AncestorID string
}

// Deriver attempts to answer a missed request from currently cached
// content. Derive runs under the cache's execution context (single-
// threaded, or with the owning shard's mutex held) and must not call back
// into the cache. The cache consults it only for requests with a positive
// Cost, the remote-cost basis the derivation must beat. A Deriver that
// also implements EventSink is attached to the cache's event stream
// automatically, which is how the derive package tracks what is currently
// cached.
type Deriver interface {
	Derive(req Request) (Derivation, bool)
}

// deriveHit drives the HitDerived half of the reference lifecycle: account
// the partial saving, credit the ancestor with a reference, emit the event
// and run the admission machinery for the derived set at residual cost.
// The caller has already charged the reference via tick. It returns the
// derived payload.
//
//watchman:accounting
func (c *Cache) deriveHit(e *Entry, id string, sig uint64, req Request, d Derivation, now float64) any {
	size := d.Size
	if size == 0 {
		size = req.Size
	}
	saved := req.Cost - d.Cost
	c.stats.DerivedHits++
	c.stats.CostSaved += saved
	c.stats.DeriveCost += d.Cost
	c.stats.BytesServed += size

	// Deriving from the ancestor is a reference to it: record it so the
	// ancestor's λ (and therefore its profit) reflects its derivative
	// value. In a sharded deployment the ancestor may live in another
	// shard, in which case the credit is skipped (crossing shard locks
	// from inside a reference would invert the lock order).
	if anc := c.lookup(d.AncestorID, Signature(d.AncestorID)); anc != nil && anc.resident {
		anc.window.record(now)
		c.ev.touch(anc, now)
	}

	if c.hasSinks() {
		c.emit(Event{Kind: EventHitDerived, Time: now, Class: req.Class, ID: id,
			Size: size, Cost: req.Cost, DeriveCost: d.Cost, Relations: req.Relations,
			AncestorID: d.AncestorID})
	}
	if c.tracer != nil {
		c.span.AncestorID = d.AncestorID
	}

	// Admission at residual cost: with a derivable ancestor resident, a
	// future reference to this set would save only remote − derivation,
	// so that is the cost its profit is charged with.
	res := req
	res.Size = size
	res.Cost = saved
	res.Payload = d.Payload
	c.missesSincePrune++
	c.miss(e, id, sig, res, now, true)
	if c.missesSincePrune >= pruneEvery {
		c.pruneRetained(now)
		c.missesSincePrune = 0
	}
	c.enforceRetainedBudget(now)
	c.sampleFragmentation()
	return d.Payload
}
